#include "core/dirty_tracker.hpp"

#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

namespace cxlpmem::core {

namespace {

// Kernel ABI the installed headers may predate (userfaultfd WP_ASYNC and
// PAGEMAP_SCAN arrived in Linux 6.7).
constexpr int kUffdUserModeOnly = 1;
constexpr std::uint64_t kUffdFeatureWpUnpopulated = 1ull << 13;
constexpr std::uint64_t kUffdFeatureWpAsync = 1ull << 15;

struct PmScanArg {
  std::uint64_t size;
  std::uint64_t flags;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t walk_end;
  std::uint64_t vec;
  std::uint64_t vec_len;
  std::uint64_t max_pages;
  std::uint64_t category_inverted;
  std::uint64_t category_mask;
  std::uint64_t category_anyof_mask;
  std::uint64_t return_mask;
};
struct PageRegion {
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t categories;
};
constexpr unsigned long kPagemapScan = _IOWR('f', 16, PmScanArg);
constexpr std::uint64_t kScanWpMatching = 1ull << 0;
constexpr std::uint64_t kScanCheckWpAsync = 1ull << 1;
// Bit 1; bit 3 is PAGE_IS_PRESENT, which reports every page.
constexpr std::uint64_t kPageIsWritten = 1ull << 1;

constexpr std::size_t kScanVec = 512;  ///< regions per PAGEMAP_SCAN call
constexpr std::size_t kMaxRanges = 64;
constexpr std::size_t kMaxPoolsPerRange = 8;

/// The mode of the live DirtyTrackingForTest, or -1 when there is none.
std::atomic<int> g_test_mode{-1};

bool test_mode_is(DirtyTrackingForTest::Mode mode) {
  return g_test_mode.load(std::memory_order_relaxed) ==
         static_cast<int>(mode);
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::uint64_t words_for(std::uint64_t pages) { return (pages + 63) / 64; }

/// True when [begin, end) is covered, without gaps, by private anonymous
/// read-write mappings: the only memory whose every change goes through
/// this process's page tables (shared memory can be written through
/// another mapping the write-protect bits never see).
bool private_anonymous(std::uintptr_t begin, std::uintptr_t end) {
  std::FILE* f = std::fopen("/proc/self/maps", "re");
  if (f == nullptr) return false;
  char* line = nullptr;
  std::size_t cap = 0;
  std::uintptr_t covered = begin;
  bool ok = true;
  while (ok && covered < end && ::getline(&line, &cap, f) > 0) {
    unsigned long lo = 0, hi = 0, off = 0, ino = 0;
    unsigned dev_major = 0, dev_minor = 0;
    char perms[5] = {};
    if (std::sscanf(line, "%lx-%lx %4s %lx %x:%x %lu", &lo, &hi, perms, &off,
                    &dev_major, &dev_minor, &ino) != 7) {
      ok = false;
      break;
    }
    if (hi <= covered) continue;
    ok = lo <= covered && perms[0] == 'r' && perms[1] == 'w' &&
         perms[3] == 'p' && ino == 0;
    covered = hi;
  }
  std::free(line);
  std::fclose(f);
  return ok && covered >= end;
}

}  // namespace

struct DirtyTracker::State {
  struct Slot {
    std::uint64_t sealed_epoch = 0;  ///< Root::epoch its last seal made
    std::vector<std::uint64_t> written;
  };
  struct Pool {
    TrackedPool id;
    Slot slot[2];
    std::uint64_t last_use = 0;
  };
  struct Range {
    std::uintptr_t end = 0;  ///< the span's end (the map key is its start)
    std::uintptr_t first_page = 0;
    std::uint64_t pages = 0;
    std::uint64_t generation = 0;
    std::uint64_t last_use = 0;
    /// Registered and write-protected: every save of the span scans it.
    /// An unarmed range is a span seen before; it holds no pools.
    bool armed = false;
    /// Saves of the span left before an unarmed range may be armed.
    int cooldown = 0;
    int failures = 0;  ///< scans in a row that failed
    std::vector<Pool> pools;
  };

  int uffd = -1;
  int pagemap = -1;
  pid_t owner = 0;  ///< a forked child shares the fds, not the address space
  std::string reason;

  std::mutex mu;
  std::map<std::uintptr_t, Range> ranges;  ///< keyed by span start
  std::uint64_t clock = 0;                 ///< generations and LRU stamps
  std::vector<PageRegion> vec = std::vector<PageRegion>(kScanVec);
  std::vector<std::uint64_t> found;

  State() {
    uffd = static_cast<int>(::syscall(__NR_userfaultfd,
                                      O_CLOEXEC | O_NONBLOCK |
                                          kUffdUserModeOnly));
    if (uffd < 0) {
      reason = errno_text("userfaultfd");
      return;
    }
    uffdio_api api{};
    api.api = UFFD_API;
    api.features = kUffdFeatureWpAsync | kUffdFeatureWpUnpopulated;
    if (::ioctl(uffd, UFFDIO_API, &api) != 0) {
      reason = errno_text("userfaultfd WP_ASYNC");
      return;
    }
    pagemap = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    if (pagemap < 0) {
      reason = errno_text("/proc/self/pagemap");
      return;
    }
    // An empty scan: kernels without PAGEMAP_SCAN reject the ioctl itself.
    PmScanArg probe{};
    probe.size = sizeof(probe);
    probe.start = probe.end = reinterpret_cast<std::uintptr_t>(&probe) &
                              ~(kTrackerPage - 1);
    probe.category_mask = probe.return_mask = kPageIsWritten;
    if (::ioctl(pagemap, kPagemapScan, &probe) < 0) {
      reason = errno_text("PAGEMAP_SCAN");
      return;
    }
    reason = probe_holes();
    if (!reason.empty()) return;
    owner = ::getpid();
  }

  ~State() {
    if (uffd >= 0) ::close(uffd);
    if (pagemap >= 0) ::close(pagemap);
  }

  [[nodiscard]] bool usable() const {
    return reason.empty() && owner == ::getpid();
  }

  /// MADV_DONTNEED empties a page without a store.  A zapped 4 KiB page
  /// leaves an empty page-table entry; a zapped 2 MiB extent (a huge page,
  /// or a page table the kernel reclaims) leaves no page table at all.
  /// Both must read as written, or a save would seal the stale bytes.
  /// Probed on a fresh registered mapping that holds one of each; returns
  /// why tracking must stay off ("" when both read as written).
  std::string probe_holes() {
    constexpr std::uint64_t kLen = 4ull << 20;  // holds a whole 2 MiB extent
    void* m = ::mmap(nullptr, kLen, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (m == MAP_FAILED) return errno_text("mmap");
    const auto start = reinterpret_cast<std::uintptr_t>(m);
    std::string why;
    uffdio_register reg{};
    reg.range.start = start;
    reg.range.len = kLen;
    reg.mode = UFFDIO_REGISTER_MODE_WP;
    if (::ioctl(uffd, UFFDIO_REGISTER, &reg) != 0) {
      why = errno_text("UFFDIO_REGISTER");
    } else {
      static_cast<volatile std::byte*>(m)[0] = std::byte{1};
      (void)::madvise(m, kTrackerPage, MADV_DONTNEED);
      PmScanArg a{};
      a.size = sizeof(a);
      a.flags = kScanCheckWpAsync;
      a.start = start;
      a.end = start + kLen;
      a.vec = reinterpret_cast<std::uintptr_t>(vec.data());
      a.vec_len = vec.size();
      a.category_mask = a.return_mask = kPageIsWritten;
      if (::ioctl(pagemap, kPagemapScan, &a) != 1 || vec[0].start != start ||
          vec[0].end != start + kLen)
        why = "PAGEMAP_SCAN does not report zapped or unmapped pages as "
              "written";
    }
    ::munmap(m, kLen);  // drops the registration with the mapping
    return why;
  }

  /// Registers and write-protects the whole pages of a new range.
  bool arm(std::uintptr_t first_page, std::uint64_t pages) {
    const std::uint64_t len = pages * kTrackerPage;
    if (!private_anonymous(first_page, first_page + len)) return false;
    uffdio_register reg{};
    reg.range.start = first_page;
    reg.range.len = len;
    reg.mode = UFFDIO_REGISTER_MODE_WP;
    if (::ioctl(uffd, UFFDIO_REGISTER, &reg) != 0) return false;
    if ((reg.ioctls & (1ull << _UFFDIO_WRITEPROTECT)) == 0) return false;
    uffdio_writeprotect wp{};
    wp.range = reg.range;
    wp.mode = UFFDIO_WRITEPROTECT_MODE_WP;
    return ::ioctl(uffd, UFFDIO_WRITEPROTECT, &wp) == 0;
  }

  /// Reports the range's pages written since its last scan into `found`
  /// and re-protects them.  False when the kernel refuses (e.g. EPERM once
  /// the range was unmapped and remapped unregistered).
  bool scan(const Range& r) {
    found.assign(words_for(r.pages), 0);
    const std::uint64_t end = r.first_page + r.pages * kTrackerPage;
    std::uint64_t at = r.first_page;
    while (at < end) {
      PmScanArg a{};
      a.size = sizeof(a);
      a.flags = kScanWpMatching | kScanCheckWpAsync;
      a.start = at;
      a.end = end;
      a.vec = reinterpret_cast<std::uintptr_t>(vec.data());
      a.vec_len = vec.size();
      a.category_mask = kPageIsWritten;
      a.return_mask = kPageIsWritten;
      const long n = ::ioctl(pagemap, kPagemapScan, &a);
      if (n < 0) return false;
      for (long i = 0; i < n; ++i) {
        const PageRegion& pr = vec[static_cast<std::size_t>(i)];
        if (pr.start < at || pr.end > end || pr.start >= pr.end) return false;
        for (std::uint64_t p = (pr.start - r.first_page) / kTrackerPage;
             p < (pr.end - r.first_page) / kTrackerPage; ++p)
          found[p / 64] |= 1ull << (p % 64);
      }
      if (a.walk_end <= at || a.walk_end > end) return false;
      at = a.walk_end;
    }
    return true;
  }

  /// Stops scanning `r` for `cooldown` saves of its span.  The range stays
  /// registered: each page then faults at most once more, and re-arming
  /// registers the same range again.
  static void disarm(Range& r, int cooldown) {
    r.armed = false;
    r.pools.clear();
    r.cooldown = cooldown;
  }

  /// True when the last scan found more than 1/kDenseDivisor of the
  /// range's pages written.
  [[nodiscard]] bool dense(const Range& r) const {
    std::uint64_t n = 0;
    for (const std::uint64_t w : found) n += std::popcount(w);
    return n * DirtyTracker::kDenseDivisor > r.pages;
  }

  static Pool* find_pool(Range& r, const TrackedPool& id) {
    for (Pool& p : r.pools)
      if (p.id == id) return &p;
    return nullptr;
  }

  Pool& pool_of(Range& r, const TrackedPool& id) {
    if (Pool* p = find_pool(r, id)) return *p;
    if (r.pools.size() >= kMaxPoolsPerRange)
      r.pools.erase(std::min_element(
          r.pools.begin(), r.pools.end(),
          [](const Pool& a, const Pool& b) { return a.last_use < b.last_use; }));
    Pool& p = r.pools.emplace_back();
    p.id = id;
    for (Slot& s : p.slot) s.written.assign(words_for(r.pages), 0);
    return p;
  }

  void evict_lru_range() {
    auto victim = std::min_element(
        ranges.begin(), ranges.end(), [](const auto& a, const auto& b) {
          return a.second.last_use < b.second.last_use;
        });
    ranges.erase(victim);
  }
};

DirtyTracker& DirtyTracker::process() {
  static DirtyTracker tracker;
  return tracker;
}

DirtyTracker::DirtyTracker() : state_(new State) {}
DirtyTracker::~DirtyTracker() { delete state_; }

std::string DirtyTracker::unavailable_reason() const {
  if (!state_->reason.empty()) return state_->reason;
  if (state_->owner != ::getpid())
    return "forked child: the userfaultfd belongs to the parent";
  return "";
}

DirtyPlan DirtyTracker::begin_save(std::span<const std::byte> span,
                                   const TrackedPool& pool,
                                   std::uint32_t target,
                                   std::uint64_t root_epoch,
                                   bool fingerprints_trusted) {
  DirtyPlan plan;
  using Mode = DirtyTrackingForTest::Mode;
  if (test_mode_is(Mode::Off) || !state_->usable()) return plan;
  if (span.size() < kMinSpanBytes && !test_mode_is(Mode::AnySize))
    return plan;
  const auto begin = reinterpret_cast<std::uintptr_t>(span.data());
  const std::uintptr_t end = begin + span.size();
  const std::uintptr_t first_page =
      (begin + kTrackerPage - 1) & ~(kTrackerPage - 1);
  const std::uintptr_t last_page = end & ~(kTrackerPage - 1);
  if (last_page <= first_page) return plan;
  const std::uint64_t pages = (last_page - first_page) / kTrackerPage;

  State& st = *state_;
  const std::lock_guard<std::mutex> lock(st.mu);
  ++st.clock;
  // Ranges overlapping this span without equalling it are dropped: the
  // buffer they described is gone or was resized.
  State::Range* range = nullptr;
  auto it = st.ranges.upper_bound(begin);
  if (it != st.ranges.begin()) --it;
  while (it != st.ranges.end() && it->first < end) {
    if (it->first == begin && it->second.end == end) {
      range = &it->second;
      ++it;
    } else if (it->second.end > begin) {
      it = st.ranges.erase(it);
    } else {
      ++it;
    }
  }
  if (range == nullptr) {
    // A span seen for the first time is only remembered.  A caller that
    // packs each checkpoint into a fresh buffer would otherwise pay the
    // arming — a /proc/self/maps parse, then a register and a
    // write-protect of the whole span — on every save.
    if (st.ranges.size() >= kMaxRanges) st.evict_lru_range();
    State::Range& r = st.ranges[begin];
    r.end = end;
    r.first_page = first_page;
    r.pages = pages;
    r.last_use = st.clock;
    return plan;
  }
  range->last_use = st.clock;
  if (!range->armed) {
    if (range->cooldown > 0) {
      --range->cooldown;
      return plan;
    }
    // Armed by a save that diffs at all, never by the untrusted fills of a
    // fresh pool; the save itself still scans everything (the slot it
    // diffs against was sealed before the arming).
    if (!fingerprints_trusted) return plan;
    if (!st.arm(first_page, pages)) {
      State::disarm(*range, kCooldown);
      return plan;
    }
    range->armed = true;
    range->generation = st.clock;
    st.found.assign(words_for(pages), 0);
  } else if (!st.scan(*range)) {
    // The span was unmapped and mapped again: its memory is new, and is
    // armed again like a span seen once.  Unless scans keep failing, as
    // when each save's fresh buffer lands at the same address: the k-th
    // failure in a row waits 2^(k-1) - 1 saves, at most kCooldown.
    State::disarm(*range, std::min((1 << std::min(range->failures, 5)) - 1,
                                   kCooldown));
    ++range->failures;
    return plan;
  } else {
    range->failures = 0;
    if (span.size() >= kMinSpanBytes && st.dense(*range)) {
      State::disarm(*range, kCooldown);
      return plan;
    }
  }
  for (State::Pool& p : range->pools)
    for (State::Slot& s : p.slot)
      for (std::size_t w = 0; w < st.found.size(); ++w)
        s.written[w] |= st.found[w];

  State::Pool& p = st.pool_of(*range, pool);
  p.last_use = st.clock;
  const State::Slot& slot = p.slot[target];
  plan.armed = true;
  plan.tracked = fingerprints_trusted && slot.sealed_epoch != 0 &&
                 slot.sealed_epoch + 1 == root_epoch;
  plan.first_page = first_page;
  plan.pages = pages;
  plan.written = slot.written;
  plan.generation = range->generation;
  return plan;
}

void DirtyTracker::sealed(const DirtyPlan& plan,
                          std::span<const std::byte> span,
                          const TrackedPool& pool, std::uint32_t target,
                          std::uint64_t sealed_epoch) {
  if (!plan.armed) return;
  State& st = *state_;
  const std::lock_guard<std::mutex> lock(st.mu);
  const auto it =
      st.ranges.find(reinterpret_cast<std::uintptr_t>(span.data()));
  if (it == st.ranges.end() || it->second.generation != plan.generation)
    return;
  State::Pool* p = State::find_pool(it->second, pool);
  if (p == nullptr) return;  // evicted meanwhile: its next save re-learns
  State::Slot& slot = p->slot[target];
  // Only the bits the plan took: a page a concurrent scan of another pool
  // found since was written after this save read the span.
  for (std::size_t w = 0; w < slot.written.size(); ++w)
    slot.written[w] &= ~plan.written[w];
  slot.sealed_epoch = sealed_epoch;
}

DirtyTrackingForTest::DirtyTrackingForTest(Mode mode) {
  g_test_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

DirtyTrackingForTest::~DirtyTrackingForTest() {
  g_test_mode.store(-1, std::memory_order_relaxed);
}

void DirtyTrackingForTest::forget() {
  DirtyTracker::State& st = *DirtyTracker::process().state_;
  const std::lock_guard<std::mutex> lock(st.mu);
  st.ranges.clear();
}

}  // namespace cxlpmem::core

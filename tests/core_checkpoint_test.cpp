// Tests for the checkpoint/restart store, including exhaustive crash
// injection on the save path.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "pmemkit/crash_hook.hpp"
#include "temp_path.hpp"

namespace core = cxlpmem::core;
namespace pk = cxlpmem::pmemkit;
namespace profiles = cxlpmem::simkit::profiles;
namespace fs = std::filesystem;

namespace {

std::vector<std::byte> payload_of(std::uint8_t fill, std::size_t n) {
  return std::vector<std::byte>(n, std::byte{fill});
}

/// Replaces the bytes of `path` in place (same inode), or creates it.
void overwrite(const fs::path& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Cuts power under `policy`: drops the (shadow-tracked) store without a
/// clean shutdown and replaces its pool file with the crash image.
void crash_store(std::unique_ptr<core::CheckpointStore>& store,
                 pk::CrashPolicy policy, std::uint64_t seed = 0) {
  store->pool().mark_crashed();
  const auto image = store->pool().region().crash_image(policy, seed);
  const fs::path path = store->pool().path();
  store.reset();
  overwrite(path, image);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DirtyTrackingForTest::forget();
    setup_ = profiles::make_setup_one();
    ns_ = std::make_unique<core::DaxNamespace>(
        "pmem2", dir_.path() / "pmem2", setup_.machine, setup_.cxl, false);
  }

  // Declared first, so it is removed after the namespace closes.
  const TempPath dir_{
      "cptest",
      ::testing::UnitTest::GetInstance()->current_test_info()->name()};
  profiles::SetupOne setup_;
  std::unique_ptr<core::DaxNamespace> ns_;
};

/// Why the dirty-page tracker is off here ("" when it works).
std::string tracker_off_reason() {
  return core::DirtyTracker::process().unavailable_reason();
}

#define SKIP_WITHOUT_TRACKER()                                      \
  do {                                                              \
    if (!tracker_off_reason().empty())                              \
      GTEST_SKIP() << "dirty-page tracking unavailable: "           \
                   << tracker_off_reason();                         \
  } while (0)

constexpr std::size_t kHugePage = 2 << 20;

/// Private anonymous memory whose placement the test controls: `bytes`
/// starting `offset` bytes into a fresh page-aligned mapping.  A `huge`
/// buffer is 2 MiB-aligned and asks for transparent huge pages before it
/// is first written (the kernel may still back it with 4 KiB pages).
class Buffer {
 public:
  explicit Buffer(std::size_t bytes, std::size_t offset = 0,
                  bool huge = false)
      : map_bytes_((offset + bytes + 4095) / 4096 * 4096), bytes_(bytes) {
    const std::size_t slack = huge ? kHugePage : 0;
    void* m = ::mmap(nullptr, map_bytes_ + slack, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::byte*>(m);
    if (huge) {
      const std::size_t lead =
          (kHugePage - reinterpret_cast<std::uintptr_t>(m) % kHugePage) %
          kHugePage;
      if (lead > 0) ::munmap(m, lead);
      base_ += lead;
      ::munmap(base_ + map_bytes_, slack - lead);
      ::madvise(base_, map_bytes_, MADV_HUGEPAGE);
    }
    data_ = base_ + offset;
    for (std::size_t i = 0; i < bytes_; ++i)
      data_[i] = static_cast<std::byte>(i * 131 + i / 4096);
  }
  ~Buffer() { ::munmap(base_, map_bytes_); }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  [[nodiscard]] std::span<std::byte> span() { return {data_, bytes_}; }
  [[nodiscard]] std::byte* base() { return base_; }
  [[nodiscard]] std::size_t map_bytes() const { return map_bytes_; }
  [[nodiscard]] std::vector<std::byte> copy() const {
    return {data_, data_ + bytes_};
  }
  /// Flips one byte of every listed 4 KiB page of the payload.
  void touch(std::initializer_list<std::size_t> pages, std::uint8_t salt) {
    for (const std::size_t p : pages)
      data_[p * 4096 + 7] ^= static_cast<std::byte>(salt | 1);
  }

 private:
  std::byte* base_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t map_bytes_;
  std::size_t bytes_;
};

std::vector<std::byte> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

std::uint64_t inode_of(const fs::path& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

/// Every object of `type` in the store's pool, in address order.
std::vector<std::vector<std::byte>> objects_of(core::CheckpointStore& store,
                                               std::uint32_t type) {
  std::vector<std::vector<std::byte>> out;
  pk::ObjectPool& pool = store.pool();
  for (pk::ObjId o = pool.first(type); !o.is_null(); o = pool.next(o, type)) {
    const auto* p = static_cast<const std::byte*>(pool.direct(o));
    out.emplace_back(p, p + pool.usable_size(o));
  }
  return out;
}

/// True when the mapping holding `p` is registered with a userfaultfd for
/// write-protect tracking (the "uw" flag of /proc/self/smaps).
bool registered_for_wp(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream in("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    unsigned long lo = 0, hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line.find(" uw") != std::string::npos;
    }
  }
  return false;
}

/// Saves `buf` until a save is tracked (at most `limit` saves); returns
/// whether one was.  A fresh store's first save records the span, its
/// first trusted save (the third) arms it, the one after seals the other
/// slot while armed, and the next is tracked.
bool save_until_tracked(core::CheckpointStore& store,
                        std::span<const std::byte> buf, int limit = 6) {
  for (int i = 0; i < limit; ++i)
    if (store.save(buf).tracked) return true;
  return false;
}

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  EXPECT_FALSE(store.has_checkpoint());
  EXPECT_TRUE(store.load().empty());

  const auto p1 = payload_of(0x11, 1000);
  store.save(p1);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.load(), p1);

  const auto p2 = payload_of(0x22, 5000);
  store.save(p2);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.load(), p2);
}

TEST_F(CheckpointTest, SurvivesReopen) {
  const auto p = payload_of(0x33, 2048);
  {
    core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
    store.save(p);
  }
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.load(), p);
}

TEST_F(CheckpointTest, ManyEpochsAlternateSlots) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  for (std::uint8_t e = 1; e <= 20; ++e) {
    store.save(payload_of(e, 100 * e));
    EXPECT_EQ(store.epoch(), e);
    const auto got = store.load();
    ASSERT_EQ(got.size(), 100u * e);
    EXPECT_EQ(got.front(), std::byte{e});
  }
}

TEST_F(CheckpointTest, OversizedPayloadRefused) {
  core::CheckpointStore store(*ns_, "cp.pool", 1024);
  EXPECT_THROW(store.save(payload_of(1, 2048)), pk::PoolError);
  EXPECT_EQ(store.epoch(), 0u);
}

TEST_F(CheckpointTest, LoadIntoIsAllocationFreeAndSizeChecked) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);

  std::vector<std::byte> buf(64, std::byte{0xcd});
  EXPECT_EQ(store.load_into(buf), 0u);      // nothing saved yet
  EXPECT_EQ(buf[0], std::byte{0xcd});       // buffer untouched
  EXPECT_EQ(store.payload_bytes(), 0u);

  const auto p = payload_of(0x66, 3000);
  store.save(p);
  EXPECT_EQ(store.payload_bytes(), 3000u);

  // One buffer reused across epochs — the restart-loop pattern.
  buf.assign(store.max_payload_bytes(), std::byte{0});
  EXPECT_EQ(store.load_into(buf), 3000u);
  EXPECT_TRUE(std::equal(p.begin(), p.end(), buf.begin()));

  store.save(payload_of(0x77, 500));
  EXPECT_EQ(store.load_into(buf), 500u);
  EXPECT_EQ(buf[499], std::byte{0x77});

  // A too-small buffer is refused without partial writes.
  std::vector<std::byte> tiny(100, std::byte{0x01});
  EXPECT_THROW((void)store.load_into(tiny), pk::PoolError);
  EXPECT_EQ(tiny[0], std::byte{0x01});
  EXPECT_EQ(store.load(), payload_of(0x77, 500));  // load() agrees
}

TEST_F(CheckpointTest, EmptyPayloadIsAValidEpoch) {
  core::CheckpointStore store(*ns_, "cp.pool", 1024);
  store.save(payload_of(7, 512));
  store.save({});
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_TRUE(store.load().empty());
  EXPECT_TRUE(store.has_checkpoint());
}

TEST_F(CheckpointTest, VolatileNamespaceNeedsOptIn) {
  core::DaxNamespace pmem0("pmem0", dir_.path() / "pmem0", setup_.machine,
                           setup_.ddr5_socket0, true);
  EXPECT_THROW(core::CheckpointStore(pmem0, "cp.pool", 1024), pk::PoolError);
  EXPECT_NO_THROW(core::CheckpointStore(pmem0, "cp.pool", 1024, true));
}

// --- incremental engine ----------------------------------------------------

TEST_F(CheckpointTest, IncrementalSkipsCleanChunks) {
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16, false, {}, opts);
  EXPECT_EQ(store.chunk_size(), 4096u);

  auto p = payload_of(0x11, 16384);  // 4 chunks
  // Saves 1 and 2 land on slots with no sealed fingerprints: full rewrites.
  core::SaveStats st = store.save(p);
  EXPECT_EQ(st.chunks_total, 4u);
  EXPECT_EQ(st.chunks_written, 4u);
  EXPECT_TRUE(st.full_rewrite);
  st = store.save(p);
  EXPECT_EQ(st.chunks_written, 4u);

  // Save 3 diffs against save 1's sealed slot — identical payload, zero
  // chunks move.
  st = store.save(p);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(st.chunks_written, 0u);
  EXPECT_EQ(st.bytes_written, 0u);
  EXPECT_EQ(store.last_save().chunks_written, 0u);
  EXPECT_EQ(store.load(), p);

  // Dirty exactly one chunk: exactly one chunk moves (vs save 2's slot).
  p[5000] = std::byte{0x99};
  st = store.save(p);
  EXPECT_EQ(st.chunks_written, 1u);
  EXPECT_EQ(st.bytes_written, 4096u);
  EXPECT_EQ(store.load(), p);
  EXPECT_EQ(store.epoch(), 4u);

  // SaveMode::Full ignores the fingerprints but must stay correct.
  st = store.save(p, core::SaveMode::Full);
  EXPECT_EQ(st.chunks_written, 4u);
  EXPECT_TRUE(st.full_rewrite);
  EXPECT_EQ(store.load(), p);
}

// The default chunk is one 4 KiB page: a one-byte change in a 1 MiB
// payload writes exactly that page.
TEST_F(CheckpointTest, DefaultGranularityIsOnePage) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 20);
  EXPECT_EQ(store.chunk_size(), 4096u);

  auto p = payload_of(0x5a, 1 << 20);
  (void)store.save(p);
  (void)store.save(p);
  p[300000] = std::byte{0x5b};
  core::SaveStats st = store.save(p);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(st.chunks_total, 256u);
  EXPECT_EQ(st.chunks_written, 1u);
  EXPECT_EQ(st.bytes_written, 4096u);
  EXPECT_EQ(store.load(), p);

  st = store.save(p, core::SaveMode::Full);
  EXPECT_TRUE(st.full_rewrite);
  EXPECT_EQ(st.chunks_written, 256u);
  EXPECT_EQ(st.bytes_written, p.size());
  EXPECT_EQ(store.load(), p);
}

TEST_F(CheckpointTest, FingerprintsSurviveReopen) {
  const auto p = payload_of(0x42, 20000);
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  {
    core::CheckpointStore store(*ns_, "cp.pool", 1 << 16, false, {}, opts);
    (void)store.save(p);
    (void)store.save(p);
    (void)store.save(p);
  }
  // Reopen requests a DIFFERENT chunk size: the on-media framing wins, and
  // the sealed fingerprints still make the next identical save a no-op.
  core::CheckpointOptions other;
  other.chunk_size = 16384;
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16, false, {}, other);
  EXPECT_EQ(store.chunk_size(), 4096u);
  const core::SaveStats st = store.save(p);
  EXPECT_EQ(st.chunks_written, 0u);
  EXPECT_EQ(store.load(), p);
}

// The fingerprints are written outside the seal transaction, so the save
// itself must make them durable: after a power cut that keeps only what
// was flushed and fenced, an identical save still moves nothing.
TEST_F(CheckpointTest, FingerprintsSurvivePowerCut) {
  const auto p = payload_of(0x42, 20000);
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  pk::PoolOptions popts;
  popts.track_shadow = true;
  auto store = std::make_unique<core::CheckpointStore>(*ns_, "cp.pool",
                                                       1 << 16, false, popts,
                                                       opts);
  (void)store->save(p);
  (void)store->save(p);
  crash_store(store, pk::CrashPolicy::DropUnflushed);

  core::CheckpointStore reopened(*ns_, "cp.pool", 1 << 16, false, {}, opts);
  ASSERT_EQ(reopened.load(), p);
  const core::SaveStats st = reopened.save(p);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(st.chunks_written, 0u);
  EXPECT_EQ(reopened.load(), p);
}

TEST_F(CheckpointTest, ParallelSaveMatchesSerial) {
  core::CheckpointOptions opts;
  opts.chunk_size = 8192;
  opts.threads = 4;
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 20, false, {}, opts);

  auto p = payload_of(0x07, (1 << 20) - 123);
  core::SaveStats st = store.save(p);
  EXPECT_EQ(st.threads_used, 4);
  EXPECT_EQ(store.load(), p);

  (void)store.save(p);
  // Scatter some dirty bytes; the parallel diff must move exactly those
  // chunks and reproduce the payload bit-for-bit.
  for (std::size_t off : {100u, 9000u, 500000u, 1040000u})
    p[off] = std::byte{0xEE};
  st = store.save(p);
  EXPECT_EQ(st.chunks_written, 4u);
  EXPECT_EQ(store.load(), p);
  EXPECT_EQ(store.payload_bytes(), p.size());
}

// A maximally FRAGMENTED dirty pattern (every other page) must still seal
// at page granularity with 16384 table entries: the seal does not undo-log
// the table, so neither its size nor its number of dirty runs is bounded
// by a lane's undo budget.
TEST_F(CheckpointTest, FragmentedDirtyPatternSeals) {
  constexpr std::uint64_t kPayload = 64ull << 20;  // 16384 x 4 KiB chunks
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  core::CheckpointStore store(*ns_, "cp.pool", kPayload, false, {}, opts);
  EXPECT_EQ(store.chunk_size(), 4096u);

  std::vector<std::byte> p(kPayload, std::byte{0x3c});
  (void)store.save(p);
  (void)store.save(p);
  for (std::uint64_t c = 0; c < 16384; c += 2)  // 8192 isolated dirty runs
    p[c * 4096] = std::byte{0x3d};
  const core::SaveStats st = store.save(p);
  EXPECT_EQ(st.chunks_total, 16384u);
  EXPECT_EQ(st.chunks_written, 8192u);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(store.load(), p);
}

// Bugfix regression: an untrusted save must clear the fingerprints past
// its payload.  A save crashes after copying chunks 80-99; under eADR every
// store survives, so the slot holds the crashed save's bytes while its
// table still describes the old ones.  300 KiB and 400 KiB slots share a
// heap footprint, so the 300 KiB saves reuse the slot, and the first of
// them (untrusted: the slot is invalid) rewrites entries 0-74 only.  Left
// alone, entries 80-99 would let the final 400 KiB save skip chunks whose
// bytes the crashed save overwrote.
TEST_F(CheckpointTest, CrashedSaveLeavesNoStaleTailFingerprints) {
  constexpr std::uint64_t kMax = 1 << 20;
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  pk::PoolOptions popts;
  popts.track_shadow = true;
  auto store = std::make_unique<core::CheckpointStore>(*ns_, "cp.pool", kMax,
                                                       false, popts, opts);
  std::vector<std::byte> original(400 * 1024);
  for (std::size_t i = 0; i < original.size(); ++i)
    original[i] = static_cast<std::byte>(i * 7 + i / 4096);
  (void)store->save(original);
  (void)store->save(original);

  auto changed = original;
  for (std::size_t c = 80; c < 100; ++c)
    changed[c * 4096 + 1] ^= std::byte{0xff};
  pk::set_crash_hook([](std::string_view point) {
    if (point == "ckpt:chunks-done")
      throw pk::CrashInjected{std::string(point)};
  });
  EXPECT_THROW((void)store->save(changed), pk::CrashInjected);
  pk::set_crash_hook({});
  crash_store(store, pk::CrashPolicy::EadrEverythingSurvives);

  core::CheckpointStore reopened(*ns_, "cp.pool", kMax, false, {}, opts);
  ASSERT_EQ(reopened.epoch(), 2u);
  ASSERT_EQ(reopened.load(), original);
  const std::span<const std::byte> prefix(original.data(), 300 * 1024);
  EXPECT_TRUE(reopened.save(prefix).full_rewrite);  // the crashed slot
  EXPECT_FALSE(reopened.save(prefix).full_rewrite);
  EXPECT_FALSE(reopened.save(original).full_rewrite);  // no realloc
  EXPECT_EQ(reopened.load(), original);
}

// Satellite regression: a reused slot must also SHRINK.  The old engine
// only realloc'd when the slot was too small, so one large epoch pinned
// peak capacity forever under sawtooth payload sizes.
TEST_F(CheckpointTest, OversizedSlotsShrinkOnReuse) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  const auto big = payload_of(0xAA, 40000);
  const auto small = payload_of(0xBB, 100);

  (void)store.save(big);
  (void)store.save(big);
  const std::uint64_t peak = store.pool().stats().heap.allocated_bytes;

  (void)store.save(small);
  (void)store.save(small);
  const std::uint64_t after = store.pool().stats().heap.allocated_bytes;
  EXPECT_LT(after + 2 * 40000, peak)
      << "small saves must release the big slots";
  EXPECT_EQ(store.load(), small);

  // And an empty-payload save frees the stale slot outright.
  const std::uint64_t objects = store.pool().stats().heap.object_count;
  (void)store.save({});
  EXPECT_EQ(store.pool().stats().heap.object_count, objects - 1);
  EXPECT_TRUE(store.load().empty());
  EXPECT_EQ(store.load_into({}), 0u);
}

// Crash injection over the save path: after recovery the store holds either
// the old epoch's payload or the new one — never a mix, never a torn size.
TEST_F(CheckpointTest, SaveIsCrashAtomic) {
  // Count pass.
  std::size_t total_points = 0;
  {
    core::CheckpointStore store(*ns_, "count.pool", 4096);
    store.save(payload_of(0xAA, 1000));
    pk::set_crash_hook([&](std::string_view) { ++total_points; });
    store.save(payload_of(0xBB, 2000));
    pk::set_crash_hook({});
  }
  ns_->remove_pool("count.pool");
  ASSERT_GT(total_points, 5u);

  for (std::size_t k = 1; k <= total_points; ++k) {
    const std::string file = "crash-" + std::to_string(k) + ".pool";
    pk::PoolOptions opts;
    opts.track_shadow = true;
    auto store = std::make_unique<core::CheckpointStore>(*ns_, file, 4096,
                                                         false, opts);
    store->save(payload_of(0xAA, 1000));

    std::size_t seen = 0;
    pk::set_crash_hook([&](std::string_view point) {
      if (++seen == k) throw pk::CrashInjected{std::string(point)};
    });
    bool crashed = false;
    try {
      store->save(payload_of(0xBB, 2000));
    } catch (const pk::CrashInjected&) {
      crashed = true;
    }
    pk::set_crash_hook({});
    ASSERT_TRUE(crashed) << "point " << k;

    crash_store(store, pk::CrashPolicy::DropUnflushed);

    core::CheckpointStore reopened(*ns_, file, 4096);
    const auto got = reopened.load();
    if (reopened.epoch() == 1) {
      ASSERT_EQ(got, payload_of(0xAA, 1000)) << "point " << k;
    } else {
      ASSERT_EQ(reopened.epoch(), 2u) << "point " << k;
      ASSERT_EQ(got, payload_of(0xBB, 2000)) << "point " << k;
    }
  }
}

// --- dirty-page tracking -----------------------------------------------------

constexpr std::uint32_t kSlotType = 0x4350;   // CheckpointStore's 'CP'
constexpr std::uint32_t kTableType = 0x4354;  // CheckpointStore's 'CT'
// 128 pages: above DirtyTracker::kMinSpanBytes.
constexpr std::size_t kTracked = 128 * 4096;

// The tracked save and the full scan are one engine with two candidate
// sets: fed the same payload history, two stores end with the same slot
// bytes and the same fingerprint tables, save by save.
TEST_F(CheckpointTest, TrackedAndFullScanAgreeByteForByte) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked, 16);
  core::CheckpointStore tracked(*ns_, "tracked.pool", kTracked);
  core::CheckpointStore scanned(*ns_, "scanned.pool", kTracked);
  int tracked_saves = 0;
  for (std::uint8_t e = 1; e <= 10; ++e) {
    buf.touch({e, static_cast<std::size_t>(e) * 5, 63}, e);
    buf.span()[0] ^= std::byte{e};  // the leading partial page
    core::SaveStats full;
    {
      const core::DirtyTrackingForTest off(core::DirtyTrackingForTest::Mode::Off);
      full = scanned.save(buf.span());
    }
    const core::SaveStats st = tracked.save(buf.span());
    EXPECT_FALSE(full.tracked);
    EXPECT_EQ(full.chunks_scanned, full.chunks_total);
    tracked_saves += st.tracked ? 1 : 0;
    if (st.tracked) {
      EXPECT_LT(st.chunks_scanned, st.chunks_total / 4);
    }
    EXPECT_EQ(st.chunks_written, full.chunks_written) << "epoch " << int(e);
    EXPECT_EQ(st.bytes_written, full.bytes_written) << "epoch " << int(e);
    ASSERT_EQ(tracked.load(), buf.copy()) << "epoch " << int(e);
    ASSERT_EQ(objects_of(tracked, kSlotType), objects_of(scanned, kSlotType));
    ASSERT_EQ(objects_of(tracked, kTableType),
              objects_of(scanned, kTableType));
  }
  // Saves 1-2 fill fresh slots, 3 arms the range, 4 diffs against a slot
  // sealed before the arming; 5-10 are tracked.
  EXPECT_EQ(tracked_saves, 6);
}

// A range is armed by its first trusted save, never by the untrusted
// first saves into a fresh pool, and the arming save itself scans every
// chunk: the slot it diffs against was sealed before the range was armed.
TEST_F(CheckpointTest, FirstTrustedSaveArmsButDoesNotTrust) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked);
  core::CheckpointStore store(*ns_, "cp.pool", kTracked);
  const core::SaveStats s1 = store.save(buf.span());  // fresh slot 0
  const core::SaveStats s2 = store.save(buf.span());  // fresh slot 1
  EXPECT_TRUE(s1.full_rewrite);
  EXPECT_TRUE(s2.full_rewrite);
  buf.touch({3}, 1);
  // Had s1 armed the range, s3 (slot 0, sealed by s1) would be tracked.
  const core::SaveStats s3 = store.save(buf.span());
  EXPECT_FALSE(s3.full_rewrite);
  EXPECT_FALSE(s3.tracked);
  EXPECT_EQ(s3.chunks_scanned, s3.chunks_total);
  buf.touch({4}, 2);
  const core::SaveStats s4 = store.save(buf.span());  // slot 1: sealed unarmed
  EXPECT_FALSE(s4.tracked);
  buf.touch({5}, 3);
  const core::SaveStats s5 = store.save(buf.span());  // slot 0: sealed by s3
  EXPECT_TRUE(s5.tracked);
  // Pages 4 and 5 changed since s3; each is one whole page, one chunk.
  EXPECT_EQ(s5.chunks_scanned, 2u);
  EXPECT_EQ(s5.chunks_written, 2u);
  EXPECT_EQ(store.load(), buf.copy());
}

// The state is process-wide and keyed by the pool file, so a handle
// dropped the way a crashed writer drops it — or closed cleanly — and
// reopened keeps tracking from its very first save.
TEST_F(CheckpointTest, ReopenedHandleKeepsTracking) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked);
  auto store = std::make_unique<core::CheckpointStore>(*ns_, "cp.pool",
                                                       kTracked);
  ASSERT_TRUE(save_until_tracked(*store, buf.span()));
  for (const bool crashed : {true, false}) {
    if (crashed) store->pool().mark_crashed();
    store.reset();
    store = std::make_unique<core::CheckpointStore>(*ns_, "cp.pool", kTracked);
    buf.touch({7, 8}, crashed ? 5 : 6);
    const core::SaveStats st = store->save(buf.span());
    EXPECT_TRUE(st.tracked) << (crashed ? "after a crash" : "after a close");
    EXPECT_EQ(st.chunks_written, 2u);
    EXPECT_EQ(store->load(), buf.copy());
  }
}

// A pool written over another's file keeps the inode but not the pool_id:
// it inherits nothing.  `a.pool` seals slot 0 from the buffer at epoch 3;
// then b.pool's image — three epochs of other bytes — is copied over
// a.pool, so the reopened a.pool reaches Root::epoch 4 with slot 0 holding
// b's bytes.  Keyed by the file alone, the tracker would vouch for them.
TEST_F(CheckpointTest, NewPoolOnTheSameBufferInheritsNothing) {
  SKIP_WITHOUT_TRACKER();
  const core::DirtyTrackingForTest seam(
      core::DirtyTrackingForTest::Mode::AnySize);
  Buffer buf(kTracked);
  {
    core::CheckpointStore a(*ns_, "a.pool", kTracked);
    for (int i = 0; i < 3; ++i) (void)a.save(buf.span());
  }
  {
    const auto other = payload_of(0x5c, kTracked);
    core::CheckpointStore b(*ns_, "b.pool", kTracked);
    for (int i = 0; i < 3; ++i) (void)b.save(other);
  }
  const fs::path a_path = ns_->path() / "a.pool";
  const std::uint64_t inode = inode_of(a_path);
  overwrite(a_path, read_file(ns_->path() / "b.pool"));
  ASSERT_EQ(inode_of(a_path), inode);
  core::CheckpointStore a(*ns_, "a.pool", kTracked);
  ASSERT_EQ(a.epoch(), 3u);
  (void)a.save(buf.span());                      // slot 1, Root::epoch 3
  const core::SaveStats st = a.save(buf.span());  // slot 0, Root::epoch 4
  EXPECT_FALSE(st.tracked);
  EXPECT_EQ(a.load(), buf.copy());
  EXPECT_TRUE(a.save(buf.span()).tracked);  // and it learns from here
  EXPECT_EQ(a.load(), buf.copy());
}

// A crash image opened beside its original shares its pool_id but not its
// file: the two pools' slots diverge, so they must not share state.  And
// the original rolled back to that older image falls back to the full
// scan: its slots' last seals are not the ones the tracker saw.
TEST_F(CheckpointTest, CrashImageSharesNoStateAndRollbackFallsBack) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked);
  pk::PoolOptions popts;
  popts.track_shadow = true;
  auto a = std::make_unique<core::CheckpointStore>(*ns_, "a.pool", kTracked,
                                                   false, popts);
  for (int i = 0; i < 4; ++i) (void)a->save(buf.span());
  ASSERT_EQ(a->epoch(), 4u);
  const auto image =
      a->pool().region().crash_image(pk::CrashPolicy::DropUnflushed, 0);
  overwrite(ns_->path() / "image.pool", image);

  buf.touch({10}, 1);
  EXPECT_TRUE(a->save(buf.span()).tracked);  // slot 0 sealed at epoch 5
  buf.touch({11}, 2);
  std::vector<std::byte> image_payload;
  {
    core::CheckpointStore c(*ns_, "image.pool", kTracked);
    ASSERT_EQ(c.epoch(), 4u);
    EXPECT_FALSE(c.save(buf.span()).tracked);  // c's slot 0, epoch 5
    image_payload = buf.copy();
    EXPECT_EQ(c.load(), image_payload);
  }
  // Had c's seal cleared the original's bits, page 11 would be missed.
  buf.touch({12}, 3);
  EXPECT_TRUE(a->save(buf.span()).tracked);  // slot 1, epoch 6
  buf.touch({13}, 4);
  const core::SaveStats st = a->save(buf.span());  // slot 0, epoch 7
  EXPECT_TRUE(st.tracked);
  EXPECT_EQ(st.chunks_written, 3u);  // pages 11, 12 and 13
  EXPECT_EQ(a->load(), buf.copy());

  // Roll the original back to the epoch-4 image, in place.
  a.reset();
  overwrite(ns_->path() / "a.pool", image);
  core::CheckpointStore rolled(*ns_, "a.pool", kTracked);
  ASSERT_EQ(rolled.epoch(), 4u);
  const core::SaveStats back = rolled.save(buf.span());
  EXPECT_FALSE(back.tracked);
  EXPECT_EQ(rolled.load(), buf.copy());
}

// A payload that starts 16 bytes into a page, split into two slices the
// way perfbench splits ranks: the slices share the page at their border,
// which neither range arms.  Stores on both sides of it must be caught.
TEST_F(CheckpointTest, AdjacentSlicesShareAnUnarmedEdgePage) {
  SKIP_WITHOUT_TRACKER();
  const core::DirtyTrackingForTest seam(
      core::DirtyTrackingForTest::Mode::AnySize);
  constexpr std::size_t kSlice = 16 * 4096;
  Buffer buf(2 * kSlice, 16);
  const std::span<std::byte> all = buf.span();
  const std::span<std::byte> lo = all.first(kSlice), hi = all.last(kSlice);
  core::CheckpointStore a(*ns_, "a.pool", kSlice);
  core::CheckpointStore b(*ns_, "b.pool", kSlice);
  ASSERT_TRUE(save_until_tracked(a, lo));
  ASSERT_TRUE(save_until_tracked(b, hi));
  for (std::uint8_t e = 1; e <= 4; ++e) {
    lo[kSlice - 3] ^= std::byte{e};  // a's tail, in the shared page
    hi[5] ^= std::byte{e};           // b's head, in the shared page
    hi[kSlice / 2] ^= std::byte{e};  // an armed page of b
    const core::SaveStats sa = a.save(lo), sb = b.save(hi);
    EXPECT_TRUE(sa.tracked);
    EXPECT_TRUE(sb.tracked);
    // a: its two edge chunks; b: its two edge chunks + the two chunks the
    // written page overlaps (chunks start 16 B into pages).
    EXPECT_LE(sa.chunks_scanned, 2u);
    EXPECT_LE(sb.chunks_scanned, 4u);
    ASSERT_EQ(a.load(), std::vector<std::byte>(lo.begin(), lo.end()));
    ASSERT_EQ(b.load(), std::vector<std::byte>(hi.begin(), hi.end()));
  }
}

// MADV_DONTNEED zeroes pages without a store; the kernel reports the
// zapped pages as written, so the save still catches them.
TEST_F(CheckpointTest, ZappedPagesAreCaught) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked);
  core::CheckpointStore store(*ns_, "cp.pool", kTracked);
  ASSERT_TRUE(save_until_tracked(store, buf.span()));
  ASSERT_EQ(::madvise(buf.base() + 20 * 4096, 2 * 4096, MADV_DONTNEED), 0);
  ASSERT_EQ(buf.span()[20 * 4096 + 1], std::byte{0});
  core::SaveStats st = store.save(buf.span());
  EXPECT_TRUE(st.tracked);
  EXPECT_EQ(st.chunks_scanned, 2u);
  EXPECT_EQ(st.chunks_written, 2u);
  EXPECT_EQ(store.load(), buf.copy());
  st = store.save(buf.span());  // the other slot catches up too
  EXPECT_EQ(store.load(), buf.copy());
}

// A zap of a whole 2 MiB extent — a transparent huge page, or a split one
// whose page table the kernel reclaims — leaves no page table behind, not
// empty entries.  The tracker runs only where the kernel reports such
// holes as written, so the save catches them too.
TEST_F(CheckpointTest, ZappedHugeExtentIsCaught) {
  SKIP_WITHOUT_TRACKER();
  constexpr std::size_t kPages = kHugePage / 4096;
  // Nine extents: one zapped extent stays below the dense threshold.
  constexpr std::size_t kBytes = 9 * kHugePage;
  Buffer buf(kBytes, 0, /*huge=*/true);
  core::CheckpointStore store(*ns_, "cp.pool", kBytes);
  ASSERT_TRUE(save_until_tracked(store, buf.span()));
  // Extent 0, not written since the arming: zapped whole.
  ASSERT_EQ(::madvise(buf.base(), kHugePage, MADV_DONTNEED), 0);
  core::SaveStats st = store.save(buf.span());
  EXPECT_TRUE(st.tracked);
  EXPECT_EQ(st.chunks_written, kPages);
  EXPECT_EQ(store.load(), buf.copy());
  // Extent 1: one store splits it, a save re-protects it, then it is
  // zapped whole.
  buf.touch({kPages + 3}, 7);
  st = store.save(buf.span());
  EXPECT_TRUE(st.tracked);
  EXPECT_EQ(store.load(), buf.copy());
  ASSERT_EQ(::madvise(buf.base() + kHugePage, kHugePage, MADV_DONTNEED), 0);
  st = store.save(buf.span());
  EXPECT_TRUE(st.tracked);
  EXPECT_EQ(st.chunks_written, kPages);
  EXPECT_EQ(store.load(), buf.copy());
  st = store.save(buf.span());  // the other slot catches up too
  EXPECT_TRUE(st.tracked);
  EXPECT_EQ(store.load(), buf.copy());
}

// A span is armed by the second save that sees it.  A caller that packs
// each checkpoint into a fresh buffer never pays the arming; one that
// reuses its buffer is tracked from the third save of it on.
TEST_F(CheckpointTest, FreshBufferIsArmedOnlyWhenSavedAgain) {
  SKIP_WITHOUT_TRACKER();
  core::CheckpointStore store(*ns_, "cp.pool", kTracked);
  std::vector<std::unique_ptr<Buffer>> fresh;
  for (int i = 0; i < 6; ++i) {
    fresh.push_back(std::make_unique<Buffer>(kTracked));
    fresh.back()->touch({static_cast<std::size_t>(i)}, 1);
    const core::SaveStats st = store.save(fresh.back()->span());
    EXPECT_FALSE(st.tracked) << "save " << i;
    EXPECT_EQ(store.load(), fresh.back()->copy());
  }
  for (const auto& b : fresh) EXPECT_FALSE(registered_for_wp(b->base()));
  Buffer& buf = *fresh.back();
  buf.touch({40}, 2);
  EXPECT_FALSE(store.save(buf.span()).tracked);  // arms
  EXPECT_TRUE(registered_for_wp(buf.base()));
  buf.touch({41}, 3);
  EXPECT_FALSE(store.save(buf.span()).tracked);  // target sealed unarmed
  buf.touch({42}, 4);
  const core::SaveStats st = store.save(buf.span());
  EXPECT_TRUE(st.tracked);
  EXPECT_EQ(st.chunks_written, 2u);  // pages 41 and 42
  EXPECT_EQ(store.load(), buf.copy());
}

// A densely written range costs the application more in write faults than
// the full scan costs: the scan that finds it dense disarms it, saves of
// the span then scan everything for a while, and tracking resumes after.
TEST_F(CheckpointTest, DenselyWrittenRangeDisarmsForAWhile) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked);
  core::CheckpointStore store(*ns_, "cp.pool", kTracked);
  ASSERT_TRUE(save_until_tracked(store, buf.span()));
  for (std::size_t p = 1; p <= 17; ++p) buf.touch({p}, 3);  // 17 > 128 / 8
  core::SaveStats st = store.save(buf.span());
  EXPECT_FALSE(st.tracked);
  EXPECT_EQ(st.chunks_scanned, st.chunks_total);
  EXPECT_EQ(store.load(), buf.copy());
  int untracked = 1;
  for (int i = 0; i < 2 * core::DirtyTracker::kCooldown; ++i) {
    buf.touch({static_cast<std::size_t>(10 + i)}, 5);
    st = store.save(buf.span());
    ASSERT_EQ(store.load(), buf.copy()) << "save " << i;
    if (st.tracked) break;
    ++untracked;
  }
  EXPECT_TRUE(st.tracked);
  // The dense save, the cooldown, the arming save, then the other slot's
  // first seal while armed.
  EXPECT_EQ(untracked, 1 + core::DirtyTracker::kCooldown + 2);
}

// A buffer unmapped and mapped again at the same address is new memory
// the old registration does not cover: the scan fails, the save falls
// back to the full scan, and the next save arms the span again.
TEST_F(CheckpointTest, RemappedBufferFallsBack) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked);
  core::CheckpointStore store(*ns_, "cp.pool", kTracked);
  ASSERT_TRUE(save_until_tracked(store, buf.span()));
  const std::vector<std::byte> before = buf.copy();
  ASSERT_EQ(::munmap(buf.base(), buf.map_bytes()), 0);
  void* again = ::mmap(buf.base(), buf.map_bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);
  ASSERT_EQ(again, buf.base());
  std::copy(before.begin(), before.end(), buf.span().begin());
  buf.touch({30}, 9);
  const core::SaveStats st = store.save(buf.span());
  EXPECT_FALSE(st.tracked);
  EXPECT_EQ(st.chunks_scanned, st.chunks_total);
  EXPECT_EQ(store.load(), buf.copy());
  EXPECT_FALSE(store.save(buf.span()).tracked);  // arms
  EXPECT_FALSE(store.save(buf.span()).tracked);  // target sealed unarmed
  buf.touch({31}, 9);
  EXPECT_TRUE(store.save(buf.span()).tracked);
  EXPECT_EQ(store.load(), buf.copy());
}

// A caller whose fresh buffer lands at the same address for every save
// fails every scan.  Re-arming backs off — the k-th failure in a row waits
// 2^(k-1) - 1 saves — so 40 saves arm the span 6 times, not 19.
TEST_F(CheckpointTest, BufferRemappedForEverySaveBacksOff) {
  SKIP_WITHOUT_TRACKER();
  Buffer buf(kTracked);
  core::CheckpointStore store(*ns_, "cp.pool", kTracked);
  std::vector<int> armed;
  for (int save = 1; save <= 40; ++save) {
    const std::vector<std::byte> before = buf.copy();
    ASSERT_EQ(::munmap(buf.base(), buf.map_bytes()), 0);
    ASSERT_EQ(::mmap(buf.base(), buf.map_bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0),
              buf.base());
    std::copy(before.begin(), before.end(), buf.span().begin());
    buf.touch({static_cast<std::size_t>(save) % 128}, 1);
    EXPECT_FALSE(store.save(buf.span()).tracked);
    ASSERT_EQ(store.load(), buf.copy()) << "save " << save;
    if (registered_for_wp(buf.base())) armed.push_back(save);
  }
  // Saves 1-2 fill the fresh slots; 3 arms; each arming's next save fails.
  EXPECT_EQ(armed, (std::vector<int>{3, 5, 8, 13, 22, 39}));
}

// Ranks saving their slices at once share the tracker (and its one
// userfaultfd) — the TSan job runs this.
TEST_F(CheckpointTest, RanksSaveConcurrently) {
  SKIP_WITHOUT_TRACKER();
  constexpr std::size_t kRanks = 4, kSlice = kTracked;
  Buffer buf(kRanks * kSlice, 16);
  core::CheckpointOptions opts;
  opts.threads = 2;
  std::vector<std::unique_ptr<core::CheckpointStore>> stores;
  for (std::size_t r = 0; r < kRanks; ++r)
    stores.push_back(std::make_unique<core::CheckpointStore>(
        *ns_, "rank" + std::to_string(r) + ".pool", kSlice, false,
        pk::PoolOptions{}, opts));
  const auto slice = [&](std::size_t r) {
    return buf.span().subspan(r * kSlice, kSlice);
  };
  std::vector<int> tracked(kRanks, 0);
  for (std::uint8_t epoch = 1; epoch <= 8; ++epoch) {
    buf.touch({epoch, 130u + 2 * epoch, 260, 511}, epoch);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < kRanks; ++r)
      threads.emplace_back([&, r] {
        tracked[r] += stores[r]->save(slice(r)).tracked ? 1 : 0;
      });
    for (std::thread& t : threads) t.join();
    for (std::size_t r = 0; r < kRanks; ++r)
      ASSERT_EQ(stores[r]->load(),
                std::vector<std::byte>(slice(r).begin(), slice(r).end()))
          << "rank " << r << " epoch " << int(epoch);
  }
  for (std::size_t r = 0; r < kRanks; ++r)
    EXPECT_GE(tracked[r], 4) << "rank " << r;
}

// Exhaustive crash injection over the INCREMENTAL save path: multi-chunk
// payload, power cut at every persistence-ordering point (between chunk
// copies, around the prepare tx, after the table drain, around the
// seal/flip tx).  After recovery the store must hold the previous epoch's
// or the new epoch's exact payload — never a torn mix — under both
// media-loss policies and under eADR, where every unflushed copy survives
// too.  Each policy runs twice: once with the dirty-page tracker choosing
// the crashing save's candidate chunks, once with every chunk a candidate.
class CheckpointCrashSweep
    : public CheckpointTest,
      public ::testing::WithParamInterface<
          std::tuple<pk::CrashPolicy, bool>> {};

TEST_P(CheckpointCrashSweep, IncrementalSaveIsCrashAtomic) {
  const auto [policy, tracked] = GetParam();
  if (tracked) SKIP_WITHOUT_TRACKER();
  const core::DirtyTrackingForTest seam(
      tracked ? core::DirtyTrackingForTest::Mode::AnySize
              : core::DirtyTrackingForTest::Mode::Off);
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;  // 5 chunks for the 20000-byte payloads

  const auto epoch2 = payload_of(0xAA, 20000);
  auto epoch3 = epoch2;
  // Dirty chunks 1 and 4 only — the sweep must cross clean-chunk skips.
  epoch3[5000] = std::byte{0xBB};
  epoch3[19000] = std::byte{0xBC};
  // One buffer, rewritten in place, so the tracker sees a single range.
  std::vector<std::byte> buf(20000);

  // Saves up to the crashing one.  The tracked path needs two more: the
  // first trusted save arms the range, the next seals the other slot while
  // it is armed, so the crashing save (slot 0 again) is the first tracked.
  const std::uint64_t prior = tracked ? 4 : 2;
  const auto run_saves = [&](core::CheckpointStore& store) {
    (void)store.save(payload_of(0x11, 20000));  // epoch 1
    std::copy(epoch2.begin(), epoch2.end(), buf.begin());
    for (std::uint64_t e = 2; e <= prior; ++e) (void)store.save(buf);
    buf[5000] = epoch3[5000];
    buf[19000] = epoch3[19000];
  };

  // Count pass.
  std::vector<std::string> points;
  {
    core::CheckpointStore store(*ns_, "count.pool", 1 << 16, false, {},
                                opts);
    run_saves(store);
    pk::set_crash_hook(
        [&](std::string_view point) { points.emplace_back(point); });
    (void)store.save(buf);
    pk::set_crash_hook({});
    ASSERT_EQ(store.last_save().tracked, tracked);
    ASSERT_EQ(store.load(), epoch3);
  }
  ns_->remove_pool("count.pool");
  const std::size_t total_points = points.size();
  ASSERT_GT(total_points, 10u);  // chunk points + prepare + table + seal tx
  ASSERT_NE(std::find(points.begin(), points.end(), "ckpt:table"),
            points.end());

  for (std::size_t k = 1; k <= total_points; ++k) {
    const std::string file = "crash-" + std::to_string(k) + ".pool";
    pk::PoolOptions popts;
    popts.track_shadow = true;
    auto store = std::make_unique<core::CheckpointStore>(*ns_, file, 1 << 16,
                                                         false, popts, opts);
    run_saves(*store);

    std::size_t seen = 0;
    pk::set_crash_hook([&](std::string_view point) {
      if (++seen == k) throw pk::CrashInjected{std::string(point)};
    });
    bool crashed = false;
    try {
      (void)store->save(buf);
    } catch (const pk::CrashInjected&) {
      crashed = true;
    }
    pk::set_crash_hook({});
    ASSERT_TRUE(crashed) << "point " << k;

    crash_store(store, policy, k);

    core::CheckpointStore reopened(*ns_, file, 1 << 16, false, {}, opts);
    const auto got = reopened.load();
    if (reopened.epoch() == prior) {
      ASSERT_EQ(got, epoch2) << "point " << k;
    } else {
      ASSERT_EQ(reopened.epoch(), prior + 1) << "point " << k;
      ASSERT_EQ(got, epoch3) << "point " << k;
    }
    // The survivor must keep working.  Epoch 1's payload cut to four
    // chunks keeps the slots' heap footprint, so the first save below lands
    // on the slot a crash left invalid without reallocating it, and the
    // full payload then diffs against that slot: the fifth fingerprint must
    // not vouch for bytes the crashed save wrote.
    const auto full = payload_of(0x11, 20000);
    const std::span<const std::byte> shorter(full.data(), 16384);
    (void)reopened.save(shorter);
    (void)reopened.save(shorter);
    ASSERT_FALSE(reopened.save(full).full_rewrite) << "point " << k;
    ASSERT_EQ(reopened.load(), full) << "point " << k;
    // And another incremental save round-trips.
    auto next = got;
    next[100] = std::byte{0xCC};
    (void)reopened.save(next);
    ASSERT_EQ(reopened.load(), next) << "point " << k;
    ns_->remove_pool(file);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CheckpointCrashSweep,
    ::testing::Combine(
        ::testing::Values(pk::CrashPolicy::DropUnflushed,
                          pk::CrashPolicy::RandomEvict,
                          pk::CrashPolicy::EadrEverythingSurvives),
        ::testing::Bool()),
    [](const auto& info) {
      const pk::CrashPolicy policy = std::get<0>(info.param);
      return std::string(policy == pk::CrashPolicy::DropUnflushed ? "Drop"
                         : policy == pk::CrashPolicy::RandomEvict ? "Evict"
                                                                  : "Eadr") +
             (std::get<1>(info.param) ? "Tracked" : "FullScan");
    });

}  // namespace

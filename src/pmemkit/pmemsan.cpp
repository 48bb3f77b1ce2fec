#include "pmemkit/pmemsan.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "pmemkit/checksum.hpp"
#include "pmemkit/errors.hpp"

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define CXLPMEM_HAVE_EXECINFO 1
#endif

#if defined(__SANITIZE_THREAD__)
#define CXLPMEM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CXLPMEM_TSAN 1
#endif
#endif

#ifdef CXLPMEM_TSAN
// ThreadSanitizer's dynamic-annotation entry points (its runtime defines
// them): accesses between Begin and End on this thread are not checked.
extern "C" void AnnotateIgnoreReadsBegin(const char* file, int line);
extern "C" void AnnotateIgnoreReadsEnd(const char* file, int line);
#endif

namespace cxlpmem::pmemkit {

namespace {

/// Thread slots for per-thread attribution: bit s of g_slots is held by a
/// live thread.  A thread claims the lowest free slot on first use and
/// frees it at exit; with none free it reports -1 and retries next time.
/// Slots are never shared: a shared slot would credit one thread's fence
/// to another thread's flush.  `claim` tells successive holders apart.
static_assert(PmemSan::kThreadSlots == 64, "slots are one 64-bit mask");
std::atomic<std::uint64_t> g_slots{0};
std::atomic<std::uint64_t> g_claims{0};
struct ThreadSlot {
  int slot = -1;
  std::uint64_t claim = 0;
  ~ThreadSlot() {
    if (slot >= 0)
      g_slots.fetch_and(~(1ull << slot), std::memory_order_release);
  }
};
thread_local ThreadSlot t_slot;

const ThreadSlot& thread_slot() noexcept {
  std::uint64_t m = g_slots.load(std::memory_order_relaxed);
  while (t_slot.slot < 0 && m != ~0ull) {
    const int s = std::countr_one(m);
    if (g_slots.compare_exchange_weak(m, m | 1ull << s,
                                      std::memory_order_acquire)) {
      t_slot.slot = s;
      t_slot.claim = g_claims.fetch_add(1, std::memory_order_relaxed) + 1;
    }
  }
  return t_slot;
}

/// Runs `read`, a read of live pool bytes, hidden from ThreadSanitizer.
/// The model compares and copies lines of the live mapping while other
/// threads of the program under test store to them without the model's
/// lock (heap bitmap words, neighbouring objects on a shared line).  That
/// is by design: the model samples what the media would see and judges it
/// by its own line states.  To TSan every such read is a data race, so
/// every read of the live mapping goes through here.
template <typename F>
auto read_live(F&& read) {
#ifdef CXLPMEM_TSAN
  AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
  auto result = read();
  AnnotateIgnoreReadsEnd(__FILE__, __LINE__);
  return result;
#else
  return read();
#endif
}

std::string capture_backtrace() {
#ifdef CXLPMEM_HAVE_EXECINFO
  void* frames[14];
  const int n = backtrace(frames, 14);
  char** syms = backtrace_symbols(frames, n);
  if (syms == nullptr) return {};
  std::string out;
  // Skip this helper and the detection frame; keep the callers that show
  // which pmemkit path (and which caller of it) issued the bad event.
  for (int i = 2; i < n; ++i) {
    out += "    ";
    out += syms[i];
    out += '\n';
  }
  std::free(syms);  // pmemlint: allow(backtrace_symbols contract)
  return out;
#else
  return "    <no backtrace: execinfo.h unavailable>\n";
#endif
}

std::shared_ptr<ViolationSink> sink_from_env() {
  const char* v = std::getenv("CXLPMEM_PMEMCHECK_SINK");
  if (v != nullptr) {
    if (std::strcmp(v, "log") == 0) return std::make_shared<LogSink>();
    if (std::strcmp(v, "count") == 0) return std::make_shared<CountSink>();
  }
  return std::make_shared<ThrowSink>();
}

}  // namespace

std::string SanViolation::format() const {
  return "pmemsan[" + pool + "] R" +
         std::to_string(static_cast<std::uint32_t>(rule)) + " " +
         to_string(rule) + " off=" + std::to_string(off) +
         " len=" + std::to_string(len) + ": " + message;
}

void ThrowSink::report(const SanViolation& v) {
  throw PoolError(ErrKind::PersistencyViolation,
                  v.format() + "\n" + v.backtrace);
}

void LogSink::report(const SanViolation& v) {
  std::fprintf(stderr, "%s\n%s", v.format().c_str(), v.backtrace.c_str());
}

void CountSink::report(const SanViolation& v) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_[static_cast<std::size_t>(v.rule)];
  ++total_;
  if (kept_.size() < kKeep) kept_.push_back(v);
}

std::uint64_t CountSink::total() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t CountSink::count(SanRule r) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<std::size_t>(r)];
}

std::vector<SanViolation> CountSink::violations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return kept_;
}

PmemSan::PmemSan(const std::byte* live, std::size_t size,
                 std::string pool_name, bool rules)
    : rules_(rules),
      live_(live),
      durable_(read_live(
          [&] { return std::vector<std::byte>(live, live + size); })),
      lines_((size + kLine - 1) / kLine, 0),
      pool_name_(std::move(pool_name)),
      sink_(rules ? sink_from_env() : nullptr) {}

void PmemSan::set_sink(std::shared_ptr<ViolationSink> sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

std::uint64_t PmemSan::line_bytes(std::uint64_t l) const noexcept {
  return std::min<std::uint64_t>(kLine, durable_.size() - l * kLine);
}

const std::byte* PmemSan::baseline(std::uint64_t l) const {
  if (!accepted_.empty())
    if (const auto it = accepted_.find(l); it != accepted_.end())
      return it->second.data();
  return durable_.data() + l * kLine;
}

void PmemSan::accept(std::uint64_t l, std::uint64_t off, std::uint64_t n) {
  const auto [it, fresh] = accepted_.try_emplace(l);
  if (fresh)
    std::memcpy(it->second.data(), durable_.data() + l * kLine,
                line_bytes(l));
  read_live([&] {
    return std::memcpy(it->second.data() + (off - l * kLine), live_ + off, n);
  });
}

bool PmemSan::line_matches_baseline(std::uint64_t l) const {
  const std::byte* base = baseline(l);
  return read_live([&] {
    return std::memcmp(live_ + l * kLine, base, line_bytes(l));
  }) == 0;
}

bool PmemSan::covered(const TxCtx& ctx, std::uint64_t off,
                      std::uint64_t end) const {
  auto it = ctx.coverage.upper_bound(off);
  if (it == ctx.coverage.begin()) return false;
  --it;
  return it->first <= off && it->second >= end;
}

PmemSan::Thread* PmemSan::current_thread() {
  if (!rules_) return nullptr;
  const ThreadSlot& ts = thread_slot();
  if (ts.slot < 0) return nullptr;
  Thread& t = threads_[static_cast<std::size_t>(ts.slot)];
  if (t.claim != ts.claim) {  // the slot changed hands: a fresh thread
    t.bit = 1ull << ts.slot;
    end_inflight(t);
    t.tx_lane = kNoTx;
    t.store_len = 0;
    t.claim = ts.claim;
  }
  return &t;
}

void PmemSan::end_inflight(Thread& t) {
  for (const std::uint64_t l : t.inflight) {
    const auto it = owners_.find(l);
    if (it == owners_.end()) continue;  // dropped by a shrink
    it->second.inflight &= ~t.bit;
    if (it->second.owes == 0 && it->second.inflight == 0) owners_.erase(it);
  }
  t.inflight.clear();
}

PmemSan::Owners PmemSan::claims(std::uint64_t l, const Thread* t) const {
  if (t == nullptr) return {};
  const auto it = owners_.find(l);
  if (it == owners_.end()) return {};
  return {it->second.owes & t->bit, it->second.inflight & t->bit};
}

SanViolation PmemSan::make_violation(SanRule rule, std::uint64_t off,
                                     std::uint64_t len,
                                     std::string message) const {
  return SanViolation{rule, off, len, pool_name_, std::move(message),
                      capture_backtrace()};
}

void PmemSan::deliver(std::vector<SanViolation> found) {
  if (found.empty()) return;
  std::shared_ptr<ViolationSink> sink;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    sink = sink_;
  }
  for (SanViolation& v : found) {
    total_.fetch_add(1, std::memory_order_relaxed);
    rule_counts_[static_cast<std::size_t>(v.rule)].fetch_add(
        1, std::memory_order_relaxed);
    if (sink) sink->report(v);  // may throw (ThrowSink) — counters are done
  }
}

void PmemSan::on_store(std::uint64_t off, std::uint64_t len,
                       StoreOrigin origin) {
  if (len == 0) return;
  std::vector<SanViolation> found;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    Thread* t = current_thread();
    if (t != nullptr) {
      // R1: a user-data store inside a transaction must be covered by an
      // add_range / add_fresh_range of that same transaction.
      const TxCtx* ctx = t->tx_lane != kNoTx ? &tx_[t->tx_lane] : nullptr;
      if (origin == StoreOrigin::User && off >= meta_bound_ && ctx &&
          ctx->active && !covered(*ctx, off, off + len))
        found.push_back(make_violation(
            SanRule::UnloggedStore, off, len,
            "store inside a transaction to bytes neither undo-logged "
            "(add_range) nor fresh (add_fresh_range); an abort or crash "
            "cannot restore them"));
      t->store_off = off;  // so a narrower follow-up persist is R6
      t->store_len = len;
    }
    const std::uint64_t last =
        std::min<std::uint64_t>((off + len - 1) / kLine, lines_.size() - 1);
    for (std::uint64_t l = off / kLine; l <= last; ++l) {
      // A pending flush stays pending: the next fence commits the line
      // with whatever it then holds.  The store itself still needs a new
      // flush (Stored), which the rules hold its thread to.
      lines_[l] = static_cast<std::uint8_t>((lines_[l] & kFlushed) | kDirty |
                                            kStored);
      if (t != nullptr) owners_[l].owes |= t->bit;
    }
  }
  deliver(std::move(found));
}

void PmemSan::on_flush(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return;
  std::vector<SanViolation> found;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    Thread* t = current_thread();
    const std::uint64_t last =
        std::min<std::uint64_t>((off + len - 1) / kLine, lines_.size() - 1);
    for (std::uint64_t l = off / kLine; l <= last; ++l) {
      if ((lines_[l] & kFlushed) == 0) {
        lines_[l] = static_cast<std::uint8_t>(lines_[l] | kFlushed);
        pending_.push_back(l);
      }
      // A line unchanged since it was last durable — or never stored —
      // gives this flush nothing to publish (R3 / R4), unless this thread
      // still owes it a flush or has not fenced its own last one: another
      // thread's fence is not this thread's.  A changed line was
      // raw-stored through a direct() pointer: an implicit store.
      const std::uint8_t s = state(l);
      const bool clean =
          rules_ && (s == 0 || s == kDurable) && line_matches_baseline(l);
      const Owners own = claims(l, t);
      if (clean && (own.owes | own.inflight) == 0) {
        if (s == 0)
          found.push_back(make_violation(
              SanRule::FlushNeverStored, l * kLine, kLine,
              "flush of a line no store ever touched (over-wide flush "
              "range?)"));
        else if (t != nullptr)
          found.push_back(make_violation(
              SanRule::RedundantFlush, l * kLine, kLine,
              "flush of an already-durable line no store re-dirtied"));
      }
      if (s != kDurable || !clean) set_state(l, kPending);
      if (t != nullptr) {
        Owners& o = owners_[l];
        o.owes &= ~t->bit;
        if ((o.inflight & t->bit) == 0) t->inflight.push_back(l);
        o.inflight |= t->bit;
      }
    }
  }
  deliver(std::move(found));
}

void PmemSan::on_fence() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const std::uint64_t l : pending_) {
    read_live([&] {
      return std::memcpy(durable_.data() + l * kLine, live_ + l * kLine,
                         line_bytes(l));
    });
    // A line re-stored after its flush keeps Stored: the fence committed
    // its fence-time bytes, but the store still owes a flush.
    auto f = static_cast<std::uint8_t>(lines_[l] & ~(kFlushed | kDirty));
    if ((f & kStateMask) == kPending)
      f = static_cast<std::uint8_t>((f & ~kStateMask) | kDurable);
    lines_[l] = f;
    if (!accepted_.empty()) accepted_.erase(l);
  }
  pending_.clear();
  if (Thread* t = current_thread()) end_inflight(*t);
}

void PmemSan::on_persist(std::uint64_t off, std::uint64_t len) {
  std::vector<SanViolation> found;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const Thread* t = current_thread();
    if (t == nullptr || t->store_off != off || len >= t->store_len) return;
    // Benign inside a transaction that covers the stored range: commit
    // flushes every covered line, so the narrow persist leaves no tail.
    const TxCtx* ctx = t->tx_lane != kNoTx ? &tx_[t->tx_lane] : nullptr;
    if (ctx && ctx->active && covered(*ctx, off, off + t->store_len)) return;
    found.push_back(make_violation(
        SanRule::PersistTooSmall, off, len,
        "persist of " + std::to_string(len) + " bytes after a store of " +
            std::to_string(t->store_len) +
            " bytes at the same offset leaves a tail unflushed"));
  }
  deliver(std::move(found));
}

void PmemSan::remap(const std::byte* live, std::size_t size) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t old = durable_.size();
  live_ = live;
  durable_.resize(size);
  lines_.resize((size + kLine - 1) / kLine, 0);
  if (size > old) {
    read_live([&] {
      return std::memcpy(durable_.data() + old, live_ + old, size - old);
    });
  } else if (size < old) {
    const std::uint64_t lines = lines_.size();
    std::erase_if(pending_, [&](std::uint64_t l) { return l >= lines; });
    std::erase_if(accepted_, [&](const auto& e) { return e.first >= lines; });
    std::erase_if(owners_, [&](const auto& e) { return e.first >= lines; });
  }
}

void PmemSan::discard(std::uint64_t off, std::uint64_t len) {
  if (!rules_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t end = std::min<std::uint64_t>(off + len, durable_.size());
  for (std::uint64_t l = off / kLine; l * kLine < end; ++l) {
    const std::uint64_t a = std::max(off, l * kLine);
    accept(l, a, std::min(end, (l + 1) * kLine) - a);
  }
}

void PmemSan::tx_begin(std::uint32_t lane) {
  const std::lock_guard<std::mutex> lock(mu_);
  tx_[lane].active = true;
  tx_[lane].coverage.clear();
  if (Thread* t = current_thread()) t->tx_lane = lane;
}

void PmemSan::tx_cover(std::uint32_t lane, std::uint64_t off,
                       std::uint64_t len) {
  if (len == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  TxCtx& ctx = tx_[lane];
  std::uint64_t end = off + len;
  auto it = ctx.coverage.upper_bound(off);
  if (it != ctx.coverage.begin() && std::prev(it)->second >= off) --it;
  while (it != ctx.coverage.end() && it->first <= end) {
    off = std::min(off, it->first);
    end = std::max(end, it->second);
    it = ctx.coverage.erase(it);
  }
  ctx.coverage.emplace(off, end);
}

void PmemSan::tx_commit_publish(std::uint32_t lane) {
  std::vector<SanViolation> found;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const TxCtx& ctx = tx_[lane];
    if (!ctx.active) return;
    const Thread* t = current_thread();
    for (const auto& [off, end] : ctx.coverage) {
      // Byte-precise, not line-state: a neighbour transaction's store
      // re-marks a shared line Stored even after this lane flushed and
      // fenced its own bytes (e.g. adjacent 8-byte slots on one line).
      // What R2 requires is that the bytes THIS transaction covers are
      // durable when its commit record publishes — and that this thread
      // stored nothing to a covered line after flushing it (the fence
      // carried such a store along, but only by luck).
      const std::uint64_t hi = std::min<std::uint64_t>(end, durable_.size());
      for (std::uint64_t l = off / kLine; l * kLine < hi; ++l) {
        const std::uint64_t a = std::max(off, l * kLine);
        const std::uint64_t b = std::min(hi, (l + 1) * kLine);
        const char* how = nullptr;
        const std::byte* base = baseline(l) + (a - l * kLine);
        if (read_live([&] { return std::memcmp(live_ + a, base, b - a); }) != 0)
          how = state(l) == kPending ? "flushed but not fenced"
                                     : "not flushed";
        else if (claims(l, t).owes != 0)
          how = "stored to again after its flush";
        if (how == nullptr) continue;
        found.push_back(make_violation(
            SanRule::UnflushedCommit, l * kLine, kLine,
            std::string("commit record published while a covered line is ") +
                how));
        break;  // one report per covered range keeps the output readable
      }
    }
  }
  deliver(std::move(found));
}

void PmemSan::tx_end(std::uint32_t lane) {
  const std::lock_guard<std::mutex> lock(mu_);
  end_tx(lane);
}

void PmemSan::end_tx(std::uint32_t lane) {
  tx_[lane].active = false;
  tx_[lane].coverage.clear();
  if (Thread* t = current_thread(); t != nullptr && t->tx_lane == lane)
    t->tx_lane = kNoTx;
}

void PmemSan::tx_abort(std::uint32_t lane) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [off, end] : tx_[lane].coverage) {
    const std::uint64_t hi = std::min<std::uint64_t>(end, durable_.size());
    for (std::uint64_t l = off / kLine; l * kLine < hi; ++l) {
      const std::uint8_t s = state(l);
      if (s != kStored && s != kPending && line_matches_baseline(l)) continue;
      // Undo-snapshotted ranges were restored and persisted by the
      // rollback; what remains non-durable here is fresh-allocation
      // content the AllocAction rollback just freed.  Dead bytes owe
      // nobody a flush.  The crash image keeps its view: the line's dirty
      // and pending flags stay, since the bytes never became durable.
      set_state(l, 0);
      accept(l, l * kLine, line_bytes(l));
    }
  }
  end_tx(lane);
}

std::vector<std::byte> PmemSan::crash_image(CrashPolicy policy,
                                            std::uint64_t seed) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (policy == CrashPolicy::EadrEverythingSurvives) {
    // Caches are inside the persistence domain: media == everything stored.
    return read_live([&] {
      return std::vector<std::byte>(live_, live_ + durable_.size());
    });
  }
  std::vector<std::byte> img = durable_;
  if (policy == CrashPolicy::RandomEvict) {
    // Flushed-but-not-fenced lines and plain dirty lines alike may or may
    // not have reached media; toss a deterministic coin per line.
    for (std::uint64_t l = 0; l < lines_.size(); ++l) {
      if ((lines_[l] & (kDirty | kFlushed)) == 0) continue;
      if ((splitmix64(seed ^ (0xabcdull + l)) & 1) == 0) continue;
      read_live([&] {
        return std::memcpy(img.data() + l * kLine, live_ + l * kLine,
                           line_bytes(l));
      });
    }
  }
  return img;
}

std::size_t PmemSan::dirty_lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(std::ranges::count_if(
      lines_, [](std::uint8_t f) { return (f & kDirty) != 0; }));
}

std::size_t PmemSan::pending_lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::size_t PmemSan::verify(std::size_t max_reports, const char* when) {
  std::vector<SanViolation> found;
  std::size_t dirty = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::uint64_t l = 0; l < lines_.size(); ++l) {
      const char* how = nullptr;
      if (state(l) == kStored)
        how = "stored but never flushed";
      else if (state(l) == kPending)
        how = "flushed but never fenced";
      else if (!line_matches_baseline(l))
        how = "raw-stored (no annotation) and never flushed";
      if (how == nullptr) continue;
      ++dirty;
      if (found.size() < max_reports)
        found.push_back(make_violation(
            SanRule::DirtyAtClose, l * kLine, kLine,
            std::string(how) + " — not durable at " + when));
    }
  }
  deliver(std::move(found));
  return dirty;
}

}  // namespace cxlpmem::pmemkit

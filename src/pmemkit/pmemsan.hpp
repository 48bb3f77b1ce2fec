// pmemkit/pmemsan.hpp — the persistence model, and PmemSan, the runtime
// persistency sanitizer built on it.
//
// One object per pool keeps, per 64-byte cache line, what x86 + ADR makes
// durable: a store lands in the cache; a flush (CLWB) schedules the line;
// the next fence (SFENCE) makes every scheduled line durable with the bytes
// it holds at the fence; a stored but unfenced line MAY still reach media
// at any moment (cache eviction).  The model holds the line states, one
// durable image and the pending (flushed, unfenced) set.  PersistentRegion
// creates it for a pool opened with track_shadow or pmemcheck.  Two readers:
//
//   crash_image()  the media after a power cut now, under a CrashPolicy —
//                  what CrashSimulator and the crash tests reopen;
//   the rules      pmemcheck only (PoolOptions::pmemcheck or
//                  CXLPMEM_PMEMCHECK=1).  Each line runs
//                  Clean ─store→ Stored ─flush→ Pending ─fence→ Durable,
//                  and violations are reported — offset, size, rule id,
//                  pool name and a small backtrace — to a ViolationSink:
//
//   R1 UnloggedStore    — store inside a transaction to pool bytes neither
//                         undo-logged (add_range) nor registered fresh
//                         (add_fresh_range) nor tx/lane metadata
//   R2 UnflushedCommit  — a commit record published while bytes the
//                         transaction covers are not durable, or after its
//                         thread stored to a covered line it has not
//                         flushed since
//   R3 RedundantFlush   — flush of a durable, unchanged line that the
//                         flushing thread has neither stored to since its
//                         own last flush nor flushed since its own last
//                         fence
//   R4 FlushNeverStored — flush of a line no store ever touched (usually an
//                         over-wide persist)
//   R5 DirtyAtClose     — stored-but-not-durable lines outstanding at pool
//                         close (or verify())
//   R6 PersistTooSmall  — a persist starting where the preceding store
//                         started but covering fewer bytes
//
// Stores and flushes are attributed per thread, because lanes on different
// threads share heap lines: one thread's flush+fence must not make another
// thread's own flush of the line read as redundant.  Fences stay global —
// any thread's fence commits every pending line.
//
// Store visibility: pmemkit's metadata stores announce themselves
// (PersistentRegion::note_store_infra), transactional user ranges arrive
// via note_store, and raw writes through direct() pointers are inferred at
// flush time by comparing the live line against the rules' baseline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pmemkit/layout.hpp"

namespace cxlpmem::pmemkit {

/// Which unfenced stores a simulated power cut keeps.
enum class CrashPolicy {
  DropUnflushed,  ///< none: catches missing flushes and fences
  /// Each stored or flushed-but-unfenced line, with p=1/2 (seeded): catches
  /// ordering bugs that only show when a line leaks early.
  RandomEvict,
  /// All: eADR / CXL Global Persistent Flush, where a battery drains the
  /// caches on power loss and flushes become performance hints.
  EadrEverythingSurvives,
};

enum class SanRule : std::uint32_t {
  UnloggedStore = 1,
  UnflushedCommit = 2,
  RedundantFlush = 3,
  FlushNeverStored = 4,
  DirtyAtClose = 5,
  PersistTooSmall = 6,
};
inline constexpr std::size_t kSanRuleCount = 7;  // 1-based, index by value

[[nodiscard]] inline const char* to_string(SanRule r) noexcept {
  switch (r) {
    case SanRule::UnloggedStore: return "unlogged-store";
    case SanRule::UnflushedCommit: return "unflushed-commit";
    case SanRule::RedundantFlush: return "redundant-flush";
    case SanRule::FlushNeverStored: return "flush-never-stored";
    case SanRule::DirtyAtClose: return "dirty-at-close";
    case SanRule::PersistTooSmall: return "persist-too-small";
  }
  return "?";
}

struct SanViolation {
  SanRule rule;
  std::uint64_t off = 0;   ///< pool offset of the offending range/line
  std::uint64_t len = 0;   ///< bytes implicated
  std::string pool;        ///< pool name (file name) at capture time
  std::string message;     ///< rule-specific diagnosis
  std::string backtrace;   ///< small call stack captured at detection

  /// One-line report: "pmemsan[pool] R3 redundant-flush off=... len=...: msg".
  [[nodiscard]] std::string format() const;
};

/// Where violations go.  Sinks may be shared across pools and threads; the
/// sanitizer serializes detection, not reporting — implementations that
/// keep state must lock.
class ViolationSink {
 public:
  virtual ~ViolationSink() = default;
  virtual void report(const SanViolation& v) = 0;
};

/// Throws PoolError(ErrKind::PersistencyViolation).  The default: a
/// violation fails the operation (and the test) on the spot.
class ThrowSink final : public ViolationSink {
 public:
  void report(const SanViolation& v) override;
};

/// Writes the formatted report (including the backtrace) to stderr and
/// keeps going — the production triage mode.
class LogSink final : public ViolationSink {
 public:
  void report(const SanViolation& v) override;
};

/// Counts per rule and keeps the first few violations for inspection —
/// what the seeded-violation suite and micro_tx's zero-violation
/// assertions use.
class CountSink final : public ViolationSink {
 public:
  void report(const SanViolation& v) override;

  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t count(SanRule r) const;
  /// The retained violations (first kKeep), in detection order.
  [[nodiscard]] std::vector<SanViolation> violations() const;

 private:
  static constexpr std::size_t kKeep = 64;
  mutable std::mutex mu_;
  std::array<std::uint64_t, kSanRuleCount> counts_{};
  std::uint64_t total_ = 0;
  std::vector<SanViolation> kept_;
};

class PmemSan {
 public:
  /// Who performed a store.  Infra = pmemkit's own metadata machinery
  /// (lane headers, logs, heap bookkeeping) — exempt from R1.  User =
  /// transactional user data (note_store), subject to R1 coverage checks.
  enum class StoreOrigin { Infra, User };

  /// Tracks a live region of `size` bytes; `live` must outlive the model.
  /// The durable image starts as a copy of the live one.  With `rules` off
  /// only the crash image is kept.  The initial sink honors
  /// CXLPMEM_PMEMCHECK_SINK=throw|log|count (default throw).  Internally
  /// synchronized; a fence copies live lines, which is racy only for lines
  /// other threads are still mutating — the lines a power cut would tear.
  PmemSan(const std::byte* live, std::size_t size, std::string pool_name,
          bool rules = true);
  PmemSan(const PmemSan&) = delete;
  PmemSan& operator=(const PmemSan&) = delete;

  /// True when the rules run (pmemcheck); false for track_shadow alone.
  [[nodiscard]] bool rules() const noexcept { return rules_; }

  /// Pool bytes below this offset are metadata (header page + lane
  /// region): infrastructure the transaction protocol itself mutates, so
  /// user-origin stores there are never R1 candidates.
  void set_meta_bound(std::uint64_t bound) noexcept { meta_bound_ = bound; }
  /// Replaces the sink.  shared_ptr so a test can keep its CountSink
  /// readable after the pool (and the sanitizer) is gone.
  void set_sink(std::shared_ptr<ViolationSink> sink);

  // --- event feed (PersistentRegion forwards these) ------------------------
  void on_store(std::uint64_t off, std::uint64_t len, StoreOrigin origin);
  void on_flush(std::uint64_t off, std::uint64_t len);
  void on_fence();
  /// persist() entry point, before its flush: checks R6 against the
  /// calling thread's preceding store.
  void on_persist(std::uint64_t off, std::uint64_t len);
  /// Follows a pool resize to the possibly-moved mapping.  Grown bytes are
  /// durable as the live image holds them (ftruncate's zeroes never pass
  /// through a cache); dropped bytes take their line bookkeeping along.
  void remap(const std::byte* live, std::size_t size);
  /// Accepts the live bytes of [off, off+len) as the rules' baseline
  /// without a flush: staged-then-abandoned scratch (an uncommitted redo
  /// session's cells) is designed never to become durable, and must not
  /// read as R5 dirt at close.  Byte-precise; the crash image is untouched.
  void discard(std::uint64_t off, std::uint64_t len);

  // --- transaction hooks ---------------------------------------------------
  void tx_begin(std::uint32_t lane);
  /// add_range / add_fresh_range coverage for the lane's open transaction.
  void tx_cover(std::uint32_t lane, std::uint64_t off, std::uint64_t len);
  /// Called immediately before the commit record is made durable: every
  /// line the transaction covers must already be durable (R2).
  void tx_commit_publish(std::uint32_t lane);
  void tx_end(std::uint32_t lane);
  /// The abort-path twin of tx_end: covered lines the rollback left
  /// non-durable (fresh allocations) hold dead bytes, which the rules
  /// accept as-is instead of reporting them at close.
  void tx_abort(std::uint32_t lane);

  // --- readers -------------------------------------------------------------
  /// The media image after a power cut at this instant.
  [[nodiscard]] std::vector<std::byte> crash_image(
      CrashPolicy policy, std::uint64_t seed = 0) const;
  /// Lines stored to since the fence that last made them durable.
  [[nodiscard]] std::size_t dirty_lines() const;
  /// Lines flushed since the last fence.
  [[nodiscard]] std::size_t pending_lines() const;

  /// Asserts everything stored so far is durable: any line still Stored or
  /// Pending — or whose live bytes differ from the baseline without any
  /// store on record (a raw store nobody flushed) — is R5, reported as
  /// "not durable at `when`".  Reports at most `max_reports` violations;
  /// returns how many lines were dirty.
  std::size_t verify(std::size_t max_reports = 16,
                     const char* when = "verify()");
  std::size_t close_check() { return verify(16, "pool close"); }

  /// Threads told apart at once; a thread finding none free skips the
  /// per-thread checks rather than share a slot.
  static constexpr unsigned kThreadSlots = 64;

 private:
  static constexpr std::uint64_t kLine = 64;

  /// Per-line flags, one byte per cache line.  The low two bits are the
  /// rules' state (Clean = 0: never stored, or forgotten by tx_abort).
  enum : std::uint8_t {
    kStored = 1,
    kPending = 2,
    kDurable = 3,
    kStateMask = 3,
    kDirty = 4,    ///< stored since the fence that last made it durable
    kFlushed = 8,  ///< in pending_: flushed since the last fence
  };

  /// Which threads (slot bits) have a claim on a line.
  struct Owners {
    std::uint64_t owes = 0;      ///< stored to it since their last flush
    std::uint64_t inflight = 0;  ///< flushed it since their last fence
  };

  static constexpr std::uint32_t kNoTx = ~0u;
  /// What the rules know about one thread (by slot).
  struct Thread {
    std::uint64_t claim = 0;    ///< the slot holder this state belongs to
    std::uint64_t bit = 0;      ///< its bit in Owners masks
    std::uint32_t tx_lane = kNoTx;  ///< lane of its open transaction
    std::uint64_t store_off = 0;  ///< its last store (R6)
    std::uint64_t store_len = 0;
    std::vector<std::uint64_t> inflight;  ///< lines with its inflight bit
  };

  struct TxCtx {
    bool active = false;
    /// Covered ranges, merged: start -> end (mirrors Transaction's set).
    std::map<std::uint64_t, std::uint64_t> coverage;
  };

  [[nodiscard]] std::uint8_t state(std::uint64_t l) const noexcept {
    return static_cast<std::uint8_t>(lines_[l] & kStateMask);
  }
  void set_state(std::uint64_t l, std::uint8_t s) noexcept {
    lines_[l] = static_cast<std::uint8_t>((lines_[l] & ~kStateMask) | s);
  }
  [[nodiscard]] std::uint64_t line_bytes(std::uint64_t l) const noexcept;
  /// What the rules compare live line `l` against: the durable image, or
  /// what discard()/tx_abort() accepted since the line's last fence.
  [[nodiscard]] const std::byte* baseline(std::uint64_t l) const;
  void accept(std::uint64_t l, std::uint64_t off, std::uint64_t n);
  [[nodiscard]] bool line_matches_baseline(std::uint64_t l) const;
  [[nodiscard]] bool covered(const TxCtx& ctx, std::uint64_t off,
                             std::uint64_t end) const;
  /// The calling thread's state (mu_ held), reset if its slot changed
  /// hands; nullptr when the rules are off or the thread is slotless.
  Thread* current_thread();
  /// Clears `t`'s inflight bits: the thread fenced.
  void end_inflight(Thread& t);
  void end_tx(std::uint32_t lane);
  /// Thread `t`'s bits on line `l` (none for nullptr).
  [[nodiscard]] Owners claims(std::uint64_t l, const Thread* t) const;
  SanViolation make_violation(SanRule rule, std::uint64_t off,
                              std::uint64_t len, std::string message) const;
  void deliver(std::vector<SanViolation> found);

  mutable std::mutex mu_;
  const bool rules_;
  const std::byte* live_;
  std::vector<std::byte> durable_;  ///< what the media durably holds
  std::vector<std::uint8_t> lines_;  ///< per-line flags (see enum above)
  std::vector<std::uint64_t> pending_;  ///< lines flushed since last fence

  // --- rules only ------------------------------------------------------------
  std::string pool_name_;
  std::uint64_t meta_bound_ = 0;
  std::shared_ptr<ViolationSink> sink_;
  /// Per-line baselines accepted by discard()/tx_abort(); dropped when a
  /// fence makes the line durable.
  std::unordered_map<std::uint64_t, std::array<std::byte, kLine>> accepted_;
  /// Lines some thread owes a flush or has in flight; absent = no claims.
  std::unordered_map<std::uint64_t, Owners> owners_;
  std::array<Thread, kThreadSlots> threads_;
  std::array<TxCtx, kLaneCount> tx_;  ///< per-lane open-transaction context
};

}  // namespace cxlpmem::pmemkit

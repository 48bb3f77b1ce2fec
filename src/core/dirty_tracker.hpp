// core/dirty_tracker.hpp — which pages of a checkpoint payload were written
// since a slot was last sealed, read from the kernel instead of rescanned.
//
// An incremental save used to fingerprint the whole payload to find the
// ~1% of pages a solver epoch changed.  The tracker asks the kernel
// instead: one process-wide userfaultfd in asynchronous write-protect mode
// (UFFD_FEATURE_WP_ASYNC) arms each payload range once; the first store to
// a protected page clears its protection in the fault handler, without
// waking anyone; and PAGEMAP_SCAN on /proc/self/pagemap reports the
// written pages and re-protects them in one ioctl.  A save then
// fingerprints only the chunks overlapping those pages.
//
// State is keyed by span address range, then by pool (file identity plus
// pool_id), then by slot: one bit per whole page of the range and slot,
// set by every scan of the range and cleared for a slot only after a seal
// of that slot committed.  A slot's bits are trusted only when the tracker
// saw the slot's last seal at Root::epoch - 1, so state survives a dropped
// and reopened handle but not a rollback to an older image.  Trust rests
// on that epoch arithmetic, not on the slot's contents, so it has a limit:
// a pool file rolled back in place twice — to image K, saved twice, then
// to an epoch-K+2 image of the first branch — passes the check with the
// second branch's bits, and pages that differ between the branches are
// missed.  A process that keeps saving to a pool must restore older images
// of it under a new file name, or restore in place at most once.
//
// A range is armed — registered and write-protected — by the second save
// that sees its exact span, and only by a save that diffs at all: a
// caller packing each checkpoint into a fresh buffer never pays the
// arming, and the untrusted fills of a fresh pool take no write faults.
// Everything degrades to "no plan" — save() then fingerprints every chunk
// as before — when the kernel or a seccomp filter refuses userfaultfd or
// PAGEMAP_SCAN, or does not report unmapped pages as written; while a
// range is new or overlaps another one without equalling it; when the
// payload is not private anonymous memory; below a minimum span size; and
// for kCooldown saves after a scan failed (the range was unmapped and
// mapped again) or found the range densely written.  The span's two
// partial edge pages are never armed (neighbouring buffers may share
// them); the caller treats their chunks as written.  Ranges stay
// registered after they are disarmed or dropped.
//
// Contract: the payload is stable during save(), and is written only by
// this process's CPU stores (a device DMA-ing into pinned payload pages
// bypasses the page tables the tracker reads).  Pages emptied by
// MADV_DONTNEED count as written, whatever the extent zapped: the tracker
// stays off on kernels that do not report such pages as written.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cxlpmem::core {

inline constexpr std::uint64_t kTrackerPage = 4096;

/// A checkpoint pool as the tracker keys it.  The file identity keeps a
/// crash image opened beside its original (same pool_id) apart; the
/// pool_id keeps a pool re-created on a recycled inode apart.
struct TrackedPool {
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::uint64_t pool_id = 0;
  bool operator==(const TrackedPool&) const = default;
};

/// What the tracker knows about one save, from begin_save() to sealed().
struct DirtyPlan {
  /// The range is armed: sealed() must be told when the seal commits.
  bool armed = false;
  /// `written` covers every whole page that may differ from the target
  /// slot; the other whole pages are byte-identical to it.
  bool tracked = false;
  std::uintptr_t first_page = 0;  ///< address of the span's first whole page
  std::uint64_t pages = 0;        ///< whole pages of the span
  /// One bit per whole page: the target's pages written since its seal.
  std::vector<std::uint64_t> written;
  std::uint64_t generation = 0;  ///< the range incarnation `written` is of
};

class DirtyTracker {
 public:
  /// The process's tracker (created on first use).
  static DirtyTracker& process();

  /// Why tracking is off in this process ("" when it works).
  [[nodiscard]] std::string unavailable_reason() const;

  /// Spans below this many bytes are never tracked: the scan and the
  /// write faults cost more than fingerprinting so few pages.  Measured
  /// with micro_checkpoint (MT save plus its mutation step, 1% of pages
  /// dirty per save, 4-vCPU host, Release): tracked / full scan = 1.24 at
  /// 192 KiB, 1.10 at 256, 1.01 at 320, 0.85 at 384, 0.61 at 768 KiB.  At
  /// 10% dirty the full scan still wins at 768 KiB (1.26x).
  static constexpr std::uint64_t kMinSpanBytes = 384 * 1024;

  /// A scan that finds more than 1/kDenseDivisor of a range's pages written
  /// disarms the range: at that density the write faults (~1.4 µs per
  /// page) cost the application more than fingerprinting the clean pages
  /// saves (micro_checkpoint --dirty-pct: break-even between 10% and 25%
  /// of pages per epoch).  Spans below kMinSpanBytes (tracked only under
  /// the test seam) are never judged: with so few pages, one store is
  /// already dense.
  static constexpr std::uint64_t kDenseDivisor = 8;
  /// Saves of a span that pass before a disarmed range (dense, a failed
  /// scan, or a refused arming) may be armed again.
  static constexpr int kCooldown = 16;

  /// Called by save() before it reads `span` for target slot `target` of
  /// `pool`.  `root_epoch` is the pool's epoch before this save;
  /// `fingerprints_trusted` says whether the save diffs against the
  /// target's fingerprints at all (a range is armed only by such a save).
  /// Scans the range when it is armed, folding the pages found into every
  /// pool's slots.
  [[nodiscard]] DirtyPlan begin_save(std::span<const std::byte> span,
                                     const TrackedPool& pool,
                                     std::uint32_t target,
                                     std::uint64_t root_epoch,
                                     bool fingerprints_trusted);

  /// The seal of `target` committed at `sealed_epoch`: the slot now holds
  /// the span as begin_save() saw it.  Clears the bits the plan took.
  void sealed(const DirtyPlan& plan, std::span<const std::byte> span,
              const TrackedPool& pool, std::uint32_t target,
              std::uint64_t sealed_epoch);

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

 private:
  friend class DirtyTrackingForTest;
  DirtyTracker();
  ~DirtyTracker();
  struct State;
  State* state_;
};

/// Test-only seam: while alive, overrides the tracker's policy for the
/// whole process.  `Off` sends every save to the full scan; `AnySize`
/// lifts kMinSpanBytes so small test payloads are tracked.  Not for
/// production code — no option, flag or environment variable reaches it.
class DirtyTrackingForTest {
 public:
  enum class Mode { Off, AnySize };
  explicit DirtyTrackingForTest(Mode mode);
  ~DirtyTrackingForTest();
  /// Drops every range the process's tracker holds (registrations stay),
  /// so a test starts from a tracker that has seen no span: a buffer a
  /// later test maps at an earlier test's address is not that range.
  static void forget();
  DirtyTrackingForTest(const DirtyTrackingForTest&) = delete;
  DirtyTrackingForTest& operator=(const DirtyTrackingForTest&) = delete;
};

}  // namespace cxlpmem::core

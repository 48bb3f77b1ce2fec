// tierkv/policy.hpp — admission and eviction machinery for the DRAM tier.
//
// Two cooperating pieces, the W-TinyLFU shape (Caffeine's policy, sized
// down for a per-shard cache):
//
//   FrequencySketch — a count-min sketch with 4-bit counters and periodic
//     halving ("aging"), so frequency estimates track the recent past
//     instead of all history.  The admission filter asks it one question:
//     is the candidate seen more often than the victim the CLOCK hand
//     found?  If not, the candidate stays cold — this is what keeps a scan
//     from flushing the resident hot set.
//
//   ClockRing — second-chance eviction over the DRAM tier's slots.  O(1)
//     amortized, and a hit only sets a reference bit (an LRU list would
//     splice a node on every hit).
//
// Both are DRAM-only, mechanism-free bookkeeping: the cache decides what a
// slot means; the ring only picks victims.
#pragma once

#include <cstdint>
#include <vector>

namespace cxlpmem::tierkv {

/// 4-bit count-min sketch with aging.  `increment` saturates at 15; after
/// `sample_period` increments every counter is halved, so one burst of
/// popularity decays instead of pinning a key hot forever.
class FrequencySketch {
 public:
  /// `expected_entries` sizes the table (~8 counters per entry, rounded up
  /// to a power of two).  Zero is legal (degenerate 64-counter sketch).
  explicit FrequencySketch(std::uint64_t expected_entries);

  void record(std::uint64_t key_hash) noexcept;
  [[nodiscard]] std::uint32_t estimate(std::uint64_t key_hash) const noexcept;

  /// TinyLFU admission: would `candidate` out-earn `victim` in DRAM?
  /// Ties go to the victim (incumbency wins — churn costs a demotion).
  [[nodiscard]] bool admit(std::uint64_t candidate_hash,
                           std::uint64_t victim_hash) const noexcept {
    return estimate(candidate_hash) > estimate(victim_hash);
  }

  [[nodiscard]] std::uint64_t aging_epochs() const noexcept { return ages_; }

 private:
  [[nodiscard]] std::uint32_t counter_at(std::uint64_t slot) const noexcept;
  void bump_at(std::uint64_t slot) noexcept;
  void age() noexcept;

  std::vector<std::uint8_t> table_;  ///< two 4-bit counters per byte
  std::uint64_t mask_ = 0;           ///< counter-index mask (power of two)
  std::uint64_t sample_period_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t ages_ = 0;
};

/// Second-chance (CLOCK) victim selection over dense slot ids.  The cache
/// allocates a slot per resident entry (acquire), marks it on every hit
/// (touch), and asks for a victim when it needs room — slots whose
/// reference bit is set get their second chance and are skipped once.
class ClockRing {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Registers a slot (reference bit set — fresh entries get one pass of
  /// grace).  Returns its id.
  std::uint32_t acquire();
  /// Marks `slot` recently used.
  void touch(std::uint32_t slot) noexcept;
  /// Unregisters `slot` (entry erased or demoted by other means).
  void release(std::uint32_t slot) noexcept;
  /// Advances the hand to the next victim: clears reference bits as it
  /// sweeps, returns the first slot found unreferenced (kNoSlot when the
  /// ring is empty).  The caller evicts the entry and then release()s.
  [[nodiscard]] std::uint32_t next_victim() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return live_; }

 private:
  struct Slot {
    bool live = false;
    bool referenced = false;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t hand_ = 0;
  std::size_t live_ = 0;
};

}  // namespace cxlpmem::tierkv

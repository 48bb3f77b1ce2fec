// tierkv/stats.hpp — telemetry for the tiered DRAM↔CXL KV cache.
//
// One counters struct shared by the cache engine, the service INFO block
// and bench/micro_tierkv, so the numbers the daemon reports are the numbers
// the bench plots.  The cache's owner thread accounts and reads them
// (TieredCache::stats()); cxlpmemd's shard worker publishes a copy after
// each batch for INFO.
#pragma once

#include <cstdint>

namespace cxlpmem::tierkv {

/// A point-in-time view of the tier's behaviour.
struct TierStats {
  std::uint64_t hits = 0;           ///< GETs served from the DRAM tier
  std::uint64_t misses = 0;         ///< GETs that had to decode a cold block
  std::uint64_t promotions = 0;     ///< cold→DRAM moves on a GET miss
  std::uint64_t demotions = 0;      ///< DRAM entries evicted to cold-only
  /// Always 0: the tier has no prefetcher.  Kept so readers of the old
  /// prefetch telemetry still compile (their accuracy reads 0).
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_issued = 0;  ///< always 0, as prefetch_hits
  std::uint64_t bytes_moved = 0;    ///< raw bytes promoted + demoted
  std::uint64_t raw_bytes = 0;      ///< uncompressed bytes in the cold tier
  std::uint64_t compressed_bytes = 0;  ///< what those bytes occupy on media
  std::uint64_t dram_bytes_used = 0;   ///< current DRAM-tier footprint
  std::uint64_t dram_bytes_budget = 0; ///< the budget sizing chose
  std::uint64_t dram_entries = 0;      ///< entries resident in DRAM

  /// raw/compressed for the cold tier — >1 means the codec is paying for
  /// itself; exactly 1 with the identity codec.
  [[nodiscard]] double compression_ratio() const noexcept {
    return compressed_bytes == 0
               ? 1.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(compressed_bytes);
  }
  /// hits / (hits + misses); 1.0 on an idle cache so floors don't trip on
  /// zero traffic.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 1.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

}  // namespace cxlpmem::tierkv

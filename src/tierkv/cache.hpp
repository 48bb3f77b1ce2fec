// tierkv/cache.hpp — the tiered DRAM↔CXL KV cache.
//
// The paper's capacity-tier thesis (PAPER §1.3: CXL-attached persistent
// memory is a capacity tier, not a DRAM replacement) executed as the
// LLM-serving workload: hot entries live in a DRAM-resident index/value
// store, and every entry's authoritative copy is a compressed,
// fingerprinted block (tierkv/codec.hpp) in a CXL/pmem-backed pool via the
// existing service::DurableMap.  A GET that misses DRAM decodes the cold
// block and promotes it on demand.  Admission and eviction are W-TinyLFU
// over CLOCK (tierkv/policy.hpp).
//
// Durability: write-through.  put() lands the compressed block in the cold
// pool inside a transaction (the caller's, or its own); the DRAM copy is
// strictly a cache, so demoting an entry just drops it.  Ack-after-commit
// semantics are therefore identical to the untiered map: anything
// acknowledged is durable, kill -9 notwithstanding.
//
// Threading: the cache runs on its owner's thread (the shard worker); it
// starts no thread of its own.  One mutex guards all tier state, and every
// operation runs through the batch API below: the owner holds the mutex
// (batch_lock) for a whole batch, and the own-transaction calls are that
// same path for a batch of one.  stats() reads atomics and takes no lock,
// so another thread (the server's INFO) may call it at any time.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/runtime.hpp"
#include "service/durable_map.hpp"
#include "tierkv/codec.hpp"
#include "tierkv/policy.hpp"
#include "tierkv/stats.hpp"

namespace cxlpmem::tierkv {

struct TierOptions {
  /// Cold-block codec: "lz" | "identity".  Unknown names are a
  /// constructor-time std::invalid_argument.
  std::string codec = "lz";
  /// DRAM tier budget in bytes (index + values + per-entry overhead).
  std::uint64_t dram_bytes = 8ull << 20;
};

/// The engine.  Throwing API (pmemkit discipline — it composes under
/// transactions).
class TieredCache {
 public:
  /// Binds to `cold` (non-owning, like the DurableMap itself binds its
  /// pool).  The map and its pool must outlive the cache.
  TieredCache(service::DurableMap& cold, TierOptions opts);
  TieredCache(const TieredCache&) = delete;
  TieredCache& operator=(const TieredCache&) = delete;

  // --- own-transaction operations -------------------------------------------
  // Each takes the tier lock and runs the batch call below as a batch of
  // one: put/erase in their own transaction, then commit_staged().
  void put(std::string_view key, std::string_view value);
  [[nodiscard]] std::optional<std::string> get(std::string_view key);
  bool erase(std::string_view key);
  [[nodiscard]] bool exists(std::string_view key);

  // --- batch composition under a caller-owned transaction ------------------
  // The server folds a burst into one commit: take batch_lock() for the
  // whole burst, run the *_in_tx calls inside the transaction, then
  // commit_staged() after the commit returned (or discard_staged() when it
  // aborted) while still holding the lock.  DRAM-tier effects of mutations
  // are staged so an aborted transaction leaves the DRAM tier exactly as it
  // was — the cache can never serve a value whose commit never happened.
  // Nothing is staged while the lock is free.
  [[nodiscard]] std::unique_lock<std::mutex> batch_lock();
  void put_in_tx(std::string_view key, std::string_view value);
  bool erase_in_tx(std::string_view key);
  [[nodiscard]] std::optional<std::string> get_in_batch(std::string_view key);
  [[nodiscard]] bool exists_in_batch(std::string_view key);
  void commit_staged();
  void discard_staged();

  // --- introspection --------------------------------------------------------
  [[nodiscard]] TierStats stats() const;
  [[nodiscard]] std::uint64_t cold_keys() const;

 private:
  struct Hot {
    std::string value;
    std::uint32_t slot = 0;
  };
  using HotMap = std::unordered_map<std::string, Hot>;

  // All private helpers assume mu_ is held.
  void hot_admit(std::string_view key, std::string_view value);
  void hot_insert(std::string_view key, std::string_view value);
  void hot_erase(HotMap::iterator it, bool count_demotion);
  bool ensure_room(std::uint64_t need);
  void cold_put(std::string_view key, std::string_view value,
                std::int64_t* d_raw, std::int64_t* d_comp);
  bool cold_erase(std::string_view key, std::int64_t* d_raw,
                  std::int64_t* d_comp);
  [[nodiscard]] std::optional<std::string> cold_get(std::string_view key);
  [[nodiscard]] std::uint64_t entry_bytes(std::string_view key,
                                          std::string_view value)
      const noexcept;

  service::DurableMap* cold_;
  TierOptions opts_;
  const Codec* codec_ = nullptr;  ///< nullptr = stored-raw only

  mutable std::mutex mu_;
  HotMap hot_;
  std::vector<const std::string*> slot_keys_;  ///< clock slot → hot_ key
  ClockRing clock_;
  FrequencySketch sketch_;
  std::uint64_t dram_used_ = 0;

  /// Staged DRAM effects of an open batch transaction (apply on commit).
  struct StagedOp {
    std::string key;
    std::optional<std::string> value;  ///< nullopt = erase
    std::int64_t d_raw = 0;
    std::int64_t d_comp = 0;
  };
  std::vector<StagedOp> staged_;

  TierCounters counters_;
};

/// DRAM budget from the machine topology instead of a hardcoded byte count:
/// asks the placement advisor (TierAdvisor via Runtime::place) to place a
/// volatile hot slice (hot_fraction of the working set, latency-sensitive)
/// against a durable cold slice of the full working set, and returns the
/// bytes the hot slice was actually granted on a volatile tier — shrinking
/// honestly when DRAM is scarce on this machine.  Never returns 0.
[[nodiscard]] std::uint64_t derive_dram_budget(
    api::Runtime& rt, std::uint64_t working_set_bytes,
    double hot_fraction = 0.25);

}  // namespace cxlpmem::tierkv

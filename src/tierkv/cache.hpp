// tierkv/cache.hpp — the tiered DRAM↔CXL KV cache.
//
// The paper's capacity-tier thesis (PAPER §1.3: CXL-attached persistent
// memory is a capacity tier, not a DRAM replacement) executed as the
// LLM-serving workload: hot entries live in a DRAM-resident index/value
// store, every entry's authoritative copy is a compressed, fingerprinted
// block (tierkv/codec.hpp) in a CXL/pmem-backed pool via the existing
// service::DurableMap, and an access-history prefetcher (tierkv/prefetch.hpp)
// promotes cold entries ahead of demand through a background promotion
// lane.  Admission and eviction are W-TinyLFU over CLOCK (tierkv/policy.hpp).
//
// Durability: write-through.  put() lands the compressed block in the cold
// pool inside a transaction (the caller's, or its own); the DRAM copy is
// strictly a cache, so demoting an entry just drops it.  Ack-after-commit
// semantics are therefore identical to the untiered map: anything
// acknowledged is durable, kill -9 notwithstanding.
//
// Threading: one owner thread drives puts/gets (the shard worker), the
// promotion lane is a second thread.  One mutex guards all tier state.
// Every operation runs through the batch API below: the server holds the
// mutex (batch_lock) for a whole batch, and the own-transaction calls are
// that same path for a batch of one, so the lane never observes a
// half-applied transaction.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/pool.hpp"
#include "api/result.hpp"
#include "api/runtime.hpp"
#include "service/durable_map.hpp"
#include "tierkv/codec.hpp"
#include "tierkv/policy.hpp"
#include "tierkv/prefetch.hpp"
#include "tierkv/stats.hpp"

namespace cxlpmem::tierkv {

struct TierOptions {
  /// Cold-block codec: "lz" | "identity".  Unknown names are a
  /// constructor-time std::invalid_argument (Errc::InvalidConfig through
  /// the facade).
  std::string codec = "lz";
  /// DRAM tier budget in bytes (index + values + per-entry overhead).
  std::uint64_t dram_bytes = 8ull << 20;
  bool prefetch = true;
  PrefetchOptions prefetch_opts;
  /// Run the promotion lane as a background thread.  Off = predictions
  /// queue up and the owner drains them explicitly (drain_promotions) —
  /// deterministic mode for tests.
  bool background_lane = true;
  /// Predictions beyond this are dropped oldest-first (a stalled lane must
  /// not grow an unbounded queue of stale guesses).
  std::size_t max_promotion_queue = 4096;
};

/// The engine.  Throwing API (pmemkit discipline — it composes under
/// transactions); api::TieredCache below is the Result-based facade.
class TieredCache {
 public:
  /// Binds to `cold` (non-owning, like the DurableMap itself binds its
  /// pool).  The map and its pool must outlive the cache.
  TieredCache(service::DurableMap& cold, TierOptions opts);
  ~TieredCache();
  TieredCache(const TieredCache&) = delete;
  TieredCache& operator=(const TieredCache&) = delete;

  // --- own-transaction operations (thread-safe vs the promotion lane) ------
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

  // --- promotion lane -------------------------------------------------------
  /// Promotes up to `max` queued predictions now, on the calling thread.
  /// Returns how many entries actually moved into DRAM.
  std::size_t drain_promotions(std::size_t max = SIZE_MAX);
  /// Blocks until the promotion queue is empty (bench determinism).
  void quiesce();
  /// Stops the background lane (idempotent; destructor calls it).
  void stop();

  // --- introspection --------------------------------------------------------
  [[nodiscard]] TierStats stats() const;
  [[nodiscard]] std::uint64_t cold_keys() const;
  [[nodiscard]] const TierOptions& options() const noexcept { return opts_; }
  [[nodiscard]] std::string_view codec_name() const noexcept;

 private:
  struct Hot {
    std::string value;
    std::uint32_t slot = 0;
    bool prefetched = false;  ///< promoted by the lane, not yet touched
  };
  using HotMap = std::unordered_map<std::string, Hot>;

  // All private helpers assume mu_ is held.
  void observe_access(std::string_view key);
  void hot_admit(std::string_view key, std::string_view value,
                 bool prefetched);
  void hot_insert(std::string_view key, std::string_view value,
                  bool prefetched);
  void hot_erase(HotMap::iterator it, bool count_demotion);
  bool ensure_room(std::uint64_t need);
  void cold_put(std::string_view key, std::string_view value,
                std::int64_t* d_raw, std::int64_t* d_comp);
  bool cold_erase(std::string_view key, std::int64_t* d_raw,
                  std::int64_t* d_comp);
  [[nodiscard]] std::optional<std::string> cold_get(std::string_view key);
  void enqueue_predictions(std::vector<std::string> keys);
  std::size_t promote_one_locked(const std::string& key);
  void lane_loop();
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
  Prefetcher prefetcher_;
  std::uint64_t dram_used_ = 0;

  /// Staged DRAM effects of an open batch transaction (apply on commit).
  struct StagedOp {
    std::string key;
    std::optional<std::string> value;  ///< nullopt = erase
    std::int64_t d_raw = 0;
    std::int64_t d_comp = 0;
  };
  std::vector<StagedOp> staged_;

  std::deque<std::string> promo_q_;
  std::condition_variable promo_cv_;
  std::condition_variable quiesce_cv_;
  std::size_t lane_busy_ = 0;
  bool stopping_ = false;
  std::thread lane_;

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

namespace cxlpmem::api {

/// api::TieredCache — the Result-based facade on Runtime for the tiered
/// cache: one call owns the cold pool, the durable map and the engine.
struct TierSpec {
  PoolSpec pool;               ///< cold pool (created/opened on `ns`)
  std::string codec = "lz";
  /// DRAM budget; 0 = derive from the machine via TierAdvisor::place.
  std::uint64_t dram_bytes = 0;
  /// Sizing hint used when dram_bytes == 0.
  std::uint64_t working_set_bytes = 64ull << 20;
  bool prefetch = true;
  bool background_lane = true;
};

class TieredCache {
 public:
  /// Opens (or creates) the cold pool on namespace `ns` and builds the
  /// tier on it.  InvalidConfig for unknown codecs; pool errors as usual.
  [[nodiscard]] static Result<TieredCache> open(Runtime& rt,
                                                std::string_view ns,
                                                std::string_view layout,
                                                TierSpec spec);

  TieredCache(TieredCache&&) noexcept;
  TieredCache& operator=(TieredCache&&) noexcept;
  ~TieredCache();

  [[nodiscard]] Result<void> put(std::string_view key,
                                 std::string_view value);
  [[nodiscard]] Result<std::optional<std::string>> get(std::string_view key);
  [[nodiscard]] Result<bool> erase(std::string_view key);
  [[nodiscard]] Result<bool> exists(std::string_view key);

  [[nodiscard]] tierkv::TierStats stats() const;
  /// The engine (throwing API, batch composition, drain/quiesce) and the
  /// cold pool — the documented escape hatches, same contract as
  /// Pool::pmem().
  [[nodiscard]] tierkv::TieredCache& engine() noexcept;
  [[nodiscard]] Pool& pool() noexcept;

 private:
  struct State;
  explicit TieredCache(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

}  // namespace cxlpmem::api

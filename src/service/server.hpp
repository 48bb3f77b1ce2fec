// service/server.hpp — cxlpmemd's engine: a sharded, durable KV service
// over TCP (RESP subset), embeddable in-process for tests and benches.
//
// Architecture (one Server):
//
//   epoll event thread          N shard workers (one per shard)
//   ------------------          ----------------------------------
//   accept connections          own ONE pool file (kvshard-<i>.pool)
//   read + parse RESP           own a disjoint keyspace (hash routing)
//   route keyed commands  --->  drain queue in request order
//   answer PING/INFO            run each batch as ONE unit
//                               (LaneSession: one pinned lane, one
//                                commit fence per burst of SETs)
//                               reply only after the commit  ----+
//                                                                |
//          per-connection sequencer (responses in request order) +--> socket
//
// How a batch runs: every request executes inside a unit, and a unit is
// one transaction if and only if any of its requests mutates (a read-only
// burst commits nothing).  The whole batch is tried as one unit first; if
// it aborts for a reason other than the media, each request reruns as its
// own unit, so one poisoned request (say, OutOfSpace) fails alone.  With
// the tier on, the tier's lock spans the whole batch and its staged DRAM
// effects are committed or discarded with each unit.
//
// Shards never share mutable pool state — key-hash routing gives each
// worker a disjoint keyspace and its own pool, so the data path takes no
// cross-shard lock; the only inter-thread handoff is the request queue.
// Workers are labelled with cores of the pool namespace's NUMA node
// (numakit::nearest_cpus), the same placement rule the checkpoint engine
// uses.
//
// Durability contract: a SET/DEL is acknowledged on the wire only after
// the transaction that carries it committed — kill -9 after the ack, and
// the write is in the recovered image.  Graceful stop() stops accepting,
// drains every queued request to a committed (or cleanly failed) reply,
// closes connections, then closes the pools — a reopened shard reports a
// clean shutdown and zero busy lanes.
//
// Degradation contract: failure is per-shard, never per-process.  A worker
// that surfaces a media failure (PoolCorrupt/IoFailure) quarantines its
// keyspace (typed Unavailable replies, visible in INFO "# Health"), runs
// bounded reopen-with-recovery attempts with doubling backoff, and rejoins
// on success; a full shard queue answers typed Busy (overload shedding).
// Both codes are retryable — service::RetryingClient rides through them.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/cxlpmem.hpp"
#include "tierkv/stats.hpp"

namespace cxlpmem::service {

struct ServerOptions {
  std::string ns = "pmem2";      ///< namespace hosting the shard pools
  std::uint16_t port = 0;        ///< 0 = ephemeral (read back via port())
  int shards = 4;                ///< worker count = pool count
  std::uint64_t pool_size_bytes = 64ull << 20;  ///< per shard
  int max_batch = 64;            ///< requests folded into one commit
  std::string pool_stem = "kvshard";  ///< files <stem>-<i>.pool
  /// Background defragmentation: after draining a batch, a shard worker
  /// whose heap fragmentation exceeds this runs one compaction pass over
  /// its map (crash-atomic per relocated entry, between batches so no
  /// request waits on it).  <= 0 disables; the default only fires on
  /// badly churned heaps.
  double compact_above = 0.75;
  /// Compaction is pointless on a near-empty heap; skip passes while the
  /// shard holds fewer live bytes than this.
  std::uint64_t compact_min_live_bytes = 1ull << 20;
  /// Tiered DRAM front-end (tierkv): hot values served from a per-shard
  /// DRAM cache while every entry's authoritative copy stays a compressed,
  /// fingerprinted block in the shard pool.  The tier is write-through — a
  /// SET's cold block lands inside the batch transaction before the ack,
  /// so the durability contract is identical to the untiered map.  A GET
  /// that misses DRAM promotes the decoded value on the shard's worker.
  bool tier = false;
  /// Total DRAM budget across all shards; 0 = derive from the machine via
  /// the placement advisor (tierkv::derive_dram_budget).
  std::uint64_t tier_dram_bytes = 0;
  std::string tier_codec = "lz";  ///< cold-block codec: "lz" | "identity"
  /// Overload shedding: a shard whose request queue reaches this depth
  /// answers Errc::Busy instead of queueing — bounded memory, bounded
  /// latency, and a typed signal the client's retry loop understands.
  /// <= 0 disables shedding (the pre-fault-tolerance behavior).
  int max_queue = 1024;
  /// Self-healing: a shard worker that surfaces a media failure
  /// (PoolCorrupt / IoFailure) quarantines itself — its keyspace answers
  /// Errc::Unavailable — and attempts up to this many reopen-with-recovery
  /// passes before giving up (permanent quarantine; the other shards keep
  /// serving either way).
  int reopen_attempts = 6;
  /// Backoff before reopen attempt i is reopen_backoff_ms << i.
  std::uint32_t reopen_backoff_ms = 10;
};

struct ShardInfo {
  int index = 0;
  int core = -1;                 ///< numakit-assigned CoreId label
  std::uint64_t ops = 0;         ///< requests served
  std::uint64_t batches = 0;     ///< transactions committed for them
  std::uint64_t keys = 0;        ///< live keys (at open, after each batch)
  std::uint32_t layout_version = 0;  ///< pool on-media format version
  double fragmentation = 0.0;    ///< heap fragmentation (1 - live/reserved)
  std::uint64_t resizes = 0;     ///< pool resize() count (since open)
  std::uint64_t compactions = 0; ///< background compaction passes run
  std::uint64_t compacted_bytes = 0;  ///< bytes relocated by those passes
  // --- health (see the "# Health" INFO section) ---
  bool quarantined = false;      ///< keyspace answering Unavailable right now
  std::uint64_t quarantines = 0; ///< media failures that triggered quarantine
  std::uint64_t rejoins = 0;     ///< successful reopen-with-recovery passes
  std::uint64_t reopen_failures = 0;  ///< failed reopen attempts
  std::uint64_t shed = 0;        ///< requests answered Busy (queue full)
};

struct ServerInfo {
  std::string ns;
  int numa_node = -1;
  std::uint64_t connections_accepted = 0;
  std::vector<ShardInfo> shards;
  bool tier = false;             ///< tiered DRAM front-end enabled
  std::string tier_codec;        ///< empty when the tier is off
  /// Tier telemetry summed across shards (dram_bytes_budget included).
  tierkv::TierStats tier_stats;
};

class Server {
 public:
  /// Builds the shard pools on `rt` (namespace opts.ns), binds the listen
  /// socket on loopback, and starts the event thread + shard workers.
  /// The Runtime must outlive the Server.
  [[nodiscard]] static api::Result<std::unique_ptr<Server>> start(
      api::Runtime& rt, ServerOptions opts);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful shutdown (idempotent): stop accepting, drain in-flight
  /// requests to commit, flush replies, close connections, close pools.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] int shard_count() const noexcept;
  /// Shard pool files, for post-shutdown inspection (pmemkit::inspect).
  [[nodiscard]] std::vector<std::filesystem::path> pool_paths() const;
  [[nodiscard]] ServerInfo info() const;

 private:
  struct Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace cxlpmem::service

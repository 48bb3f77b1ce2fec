// pmemkit/heap.hpp — the persistent allocator.
//
// Design (a simplified pmemobj heap):
//   * the heap is one or more *spans*; each span is a self-contained region
//     starting with a ChunkDesc table, followed by 256 KiB chunks;
//   * a pool is created with a single base span; live grow appends spans at
//     the end of the file (the span table in the header page names them),
//     shrink retracts trailing spans whose chunks are all Free;
//   * small allocations (<= 128 KiB+header) live in Runs: a chunk carved
//     into equal blocks of one size class, with an in-chunk bitmap;
//   * larger allocations take a contiguous span of chunks (Huge) — never
//     crossing a span boundary, since chunk addresses only stay contiguous
//     within one span;
//   * every persistent-metadata mutation (bitmap bits, chunk states, the
//     caller's destination ObjId) is staged on a caller-supplied RedoSession
//     and becomes durable atomically at session commit;
//   * transient state (free-block hints, occupancy counters) is rebuilt on
//     open by scanning.
//
// The split into stage_*/finish_* lets the pool compose an allocation with
// other writes (e.g. publishing the root oid) in one atomic step.
//
// Concurrency: the heap is internally sharded so lanes allocate in
// parallel.  Redo cells store absolute 64-bit values, so two in-flight
// operations must never stage the same word — the unit of exclusion is the
// chunk.  Every stage_* call acquires the target chunk's mutex and hands it
// back inside the Prepared* guard; the caller keeps it across its redo
// commit and releases it via finish_*/cancel_*.  Around that core:
//   * each thread keeps a *current run* per size class (thread-local,
//     keyed by the heap's epoch).  A small allocation try-locks it first
//     and uses it when, under the chunk lock, it is still a Run of that
//     class with a free block; a free makes the freed block's run the
//     thread's current run, so hot freed blocks are reused first.  Only a
//     miss touches the shared partial-run lists;
//   * per-size-class mutexes guard those partial-run lists; busy runs are
//     skipped (try-lock), so same-class allocations from different lanes
//     spread across runs instead of queueing.  Whether a run is listed is
//     a per-chunk flag guarded by the chunk lock, so finish_* re-hints an
//     already listed run without taking the class lock;
//   * one span mutex guards the transient free-chunk map; fresh chunks are
//     claimed there eagerly at stage time so concurrent span searches never
//     overlap, and cancel_* returns the claim;
//   * the epoch is process-unique and moves on in format, rebuild,
//     retract_span and whenever reclaim_empty_runs frees a chunk, the only
//     ways a run stops being one or a chunk index stops being valid;
//   * the running counters (occupancy, op and contention counts) live in
//     cache-line shards, one per thread up to 16, summed on read;
//   * lock order is chunk -> (class | span); class- and span-holders only
//     ever try-lock chunks, so the order cannot cycle.  Contended blocking
//     acquisitions (a failed try_lock first) are counted per lock kind.
// Recovery and rebuild still run single-threaded on the open path.
// Span-table mutation (extend/retract) happens only on the open path or
// under a fully quiesced pool (every lane held), published through an
// acquire/release counter so concurrent readers (stats, iteration) see a
// consistent prefix.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pmemkit/layout.hpp"
#include "pmemkit/pmem_ops.hpp"
#include "pmemkit/redo.hpp"

namespace cxlpmem::pmemkit {

/// Result of stage_alloc: where the object will live once the session
/// commits.  Holds the target chunk's lock from stage to finish/cancel —
/// move-only, and must be resolved by exactly one of finish_alloc() /
/// cancel_alloc() before the owning session's lane does anything else.
struct PreparedAlloc {
  std::uint64_t data_off = 0;
  std::uint64_t total_size = 0;  ///< block/span bytes incl. header
  std::uint32_t chunk = 0;       ///< head chunk of the block/span
  std::uint32_t claimed_span = 0;  ///< fresh chunks claimed transiently
  std::unique_lock<std::mutex> owner;  ///< chunk exclusivity, stage->finish
};

/// Result of stage_free: the staged release plus the chunk lock.  A
/// default-constructed (staged == false) value means the object was already
/// dead and nothing was staged.
struct PreparedFree {
  std::uint64_t data_off = 0;
  std::uint32_t chunk = 0;
  bool staged = false;
  std::unique_lock<std::mutex> owner;
};

/// Contended acquisitions (transient, since open): a failed try_lock before
/// a blocking lock, counted per lock kind.  chunk_lock covers the blocking
/// chunk locks — stage_free, is_live_synced, type_of_synced, and the waits
/// for a fresh run's or a huge span's chunk.
struct HeapContention {
  std::uint64_t class_lock = 0;  ///< size-class (partial-list) mutexes
  std::uint64_t chunk_lock = 0;
  std::uint64_t span_lock = 0;   ///< the free-chunk map's mutex
};

struct HeapStats {
  std::uint64_t total_bytes = 0;      ///< heap data capacity
  std::uint64_t allocated_bytes = 0;  ///< sum of live block/span bytes
  std::uint64_t object_count = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t free_chunks = 0;
  std::uint64_t span_count = 0;       ///< heap spans (1 = never grown)
  // Fragmentation: how much chunk space is reserved vs actually asked for.
  std::uint64_t live_bytes = 0;      ///< sum of live object bytes incl. header
  std::uint64_t reserved_bytes = 0;  ///< non-Free chunks * kChunkSize
  double fragmentation = 0.0;        ///< 1 - live/reserved (0 when empty)
  // Contention counters (transient, since open).
  std::uint64_t alloc_ops = 0;       ///< stage_alloc calls
  std::uint64_t free_ops = 0;        ///< stage_free calls that staged
  std::uint64_t run_lock_skips = 0;  ///< runs skipped because busy
  std::uint64_t run_lock_waits = 0;  ///< blocking waits on a busy run
  HeapContention contended;          ///< see HeapContention
};

/// The fragmentation inputs of HeapStats, kept as running counters so a
/// poller reads them in O(1) instead of walking the heap.  Same definitions
/// as the walked fields; fragmentation is clamped to [0, 1] because the two
/// counters are read one after the other while lanes may be mid-update.
struct HeapOccupancy {
  std::uint64_t live_bytes = 0;
  std::uint64_t reserved_bytes = 0;
  double fragmentation = 0.0;
};

class Heap {
 public:
  /// Binds to the base heap span [heap_off, heap_off+heap_size) of
  /// `region`.  Further spans are added with adopt_span()/extend_span().
  Heap(PersistentRegion& region, std::uint64_t heap_off,
       std::uint64_t heap_size);

  /// Formats a fresh heap (create path): all base-span chunks Free.
  void format();

  /// Rebuilds transient state from persistent chunk metadata (open path),
  /// across every registered span.  Validates invariants; throws PoolError
  /// on corruption.  Call it only after every published redo log has been
  /// replayed (ObjectPool::recover_lanes): a rebuild from the pre-replay
  /// image would hand a replayed allocation's chunk out again.
  void rebuild();

  /// Registers an already-formatted span (open path, from the pool's span
  /// table) — call before rebuild().  Throws PoolError on a span that does
  /// not fit the region or cannot hold a single chunk.
  void adopt_span(std::uint64_t off, std::uint64_t size);

  /// Formats [off, off+size) as a fresh all-Free span (persisted) and
  /// publishes it live: allocations can land in it as soon as this
  /// returns.  Returns the number of chunks added.  Grow path — the
  /// caller (pool resize) has already extended the file and persists the
  /// span-table entry as part of its sealing commit.
  std::uint32_t extend_span(std::uint64_t off, std::uint64_t size);

  /// Number of registered spans / a span's extent (index < span_count()).
  [[nodiscard]] std::uint32_t span_count() const noexcept;
  [[nodiscard]] HeapSpan span_extent(std::uint32_t idx) const noexcept;

  /// Bytes of live allocations inside span `idx` (0 = retractable).
  [[nodiscard]] std::uint64_t span_live_bytes(std::uint32_t idx) const;

  /// True when span `idx` could be retracted right now: every chunk is
  /// persistently Free and transiently unclaimed.  The shrink path's
  /// pre-flight check, sharing retract_span()'s exact criteria (note an
  /// empty Run chunk still reserved for its size class blocks retraction).
  [[nodiscard]] bool span_retractable(std::uint32_t idx) const;

  /// Unpublishes the trailing span so the pool can truncate the file.
  /// Throws PoolError(ShrinkBlocked) when any of its chunks is occupied
  /// (persistently or by an in-flight claim) and PoolError(TxMisuse) when
  /// only the base span is left.
  void retract_span();

  /// Returns fully-emptied Run chunks (bitmap all zero) to the Free state,
  /// durably, and drops their partial-run hints.  An emptied run otherwise
  /// stays reserved for its size class forever — this is what lets
  /// compaction actually lower reserved_bytes, and lets a shrink retract a
  /// span whose runs have been drained.  Safe against concurrent
  /// allocations (each chunk is judged and flipped under its own lock).
  /// Returns the number of chunks reclaimed.
  std::uint32_t reclaim_empty_runs();

  /// Stages an allocation of `usable` bytes with the given type number.
  /// Writes the AllocHeader immediately (inert until the staged bitmap /
  /// chunk-state cells commit).  When `zero` is set the data area is
  /// cleared and persisted before publication.  The returned guard owns the
  /// target chunk until finish_alloc()/cancel_alloc().
  PreparedAlloc stage_alloc(RedoSession& redo, std::uint64_t usable,
                            std::uint32_t type_num, bool zero);

  /// Transient bookkeeping after the session committed; releases the chunk.
  void finish_alloc(PreparedAlloc& a);

  /// Abandons a staged allocation whose session never committed (e.g. the
  /// transaction's undo-log append overflowed): returns transiently claimed
  /// chunks and releases the chunk lock.  The persistent image is untouched
  /// because the staged cells were never published.
  void cancel_alloc(PreparedAlloc& a);

  /// Stages the release of the object at `data_off`.  Throws AllocError for
  /// invalid/double frees.  Safe to call for an object that a recovery
  /// already released when `tolerate_dead` is set (idempotent replay).
  /// Result has staged == false when the object was already dead.
  PreparedFree stage_free(RedoSession& redo, std::uint64_t data_off,
                          bool tolerate_dead = false);

  /// Transient bookkeeping after a committed free; releases the chunk.
  void finish_free(PreparedFree& f);

  /// True when `data_off` points at a live allocation.  NOT synchronized
  /// against concurrent mutation of the same chunk — callers inside a
  /// stage_* critical section (or single-threaded phases) use this.
  [[nodiscard]] bool is_live(std::uint64_t data_off) const;

  /// is_live() behind the target chunk's lock: the validation entry point
  /// while other lanes may be committing into the same chunk.  Still a
  /// point-in-time answer — the object can die the moment the lock drops.
  [[nodiscard]] bool is_live_synced(std::uint64_t data_off) const;

  /// AllocHeader of a live object.
  [[nodiscard]] const AllocHeader& header_of(std::uint64_t data_off) const;

  /// Type number of the live object at `data_off`, read behind the target
  /// chunk's lock — the validation entry point while other lanes may be
  /// committing into the same chunk (same contract as is_live_synced).
  [[nodiscard]] std::uint32_t type_of_synced(std::uint64_t data_off) const;

  /// Usable size of the live object at `data_off`.
  [[nodiscard]] std::uint64_t usable_size(std::uint64_t data_off) const {
    return header_of(data_off).size;
  }

  /// First live object of `type_num` (any type when type_num == UINT32_MAX),
  /// or 0.  Iteration order: ascending offset.
  [[nodiscard]] std::uint64_t first_object(std::uint32_t type_num) const;
  /// Next live object after `data_off` with matching type, or 0.
  [[nodiscard]] std::uint64_t next_object(std::uint64_t data_off,
                                          std::uint32_t type_num) const;

  /// Full census: walks every chunk (per-chunk locked).  The reference
  /// inspect() checks occupancy() against; too slow for a hot path.
  [[nodiscard]] HeapStats stats() const;

  /// live/reserved bytes and fragmentation from the running counters, O(1).
  /// Moved by finish_alloc/finish_free/reclaim_empty_runs, zeroed by
  /// format() and seeded by rebuild(); agrees with stats() whenever no
  /// operation is between stage and finish.
  [[nodiscard]] HeapOccupancy occupancy() const noexcept;

  /// The contention counts of HeapStats in O(1), without the heap walk.
  [[nodiscard]] HeapContention contention() const noexcept;

  /// Drops the calling thread's current runs: its next small allocation of
  /// every class takes a run from the shared partial list.  Compaction
  /// calls it before each relocation, or the relocation would land back in
  /// the run its source block was just freed from.
  static void forget_current_runs() noexcept;

  /// The calling thread's current run of `class_idx` as its next
  /// allocation of that class would try it (UINT32_MAX when none).
  [[nodiscard]] std::uint32_t current_run_of(int class_idx) const noexcept;

  /// Largest single allocation this heap can ever satisfy.
  [[nodiscard]] std::uint64_t max_alloc_bytes() const noexcept;

  /// Global index of the chunk holding the allocation at `data_off`, or
  /// UINT32_MAX when outside the heap.  Compaction uses it to group objects
  /// by source chunk and to detect a relocation that landed back in the
  /// chunk it was escaping.
  [[nodiscard]] std::uint32_t chunk_index_of(std::uint64_t data_off) const
      noexcept;

  /// Live bytes (blocks/spans in use, incl. headers' share) inside the
  /// chunk holding `data_off` — the compactor's sparseness key.  0 when the
  /// offset is outside the heap.
  [[nodiscard]] std::uint64_t chunk_fill_of(std::uint64_t data_off) const;

 private:
  /// One span's geometry: descriptor table at `off`, chunks after it.
  struct Span {
    std::uint64_t off = 0;         ///< region start (= desc table)
    std::uint64_t size = 0;        ///< region bytes
    std::uint64_t chunks_off = 0;  ///< pool offset of this span's chunk 0
    std::uint32_t first_chunk = 0;  ///< global index of its first chunk
    std::uint32_t chunk_count = 0;
  };

  /// Solves a span's chunk count/geometry; throws when it cannot hold one
  /// chunk or exceeds the mapped region.
  [[nodiscard]] Span solve_span(std::uint64_t off, std::uint64_t size) const;

  /// Appends a solved span to the transient tables (publishes last).
  void publish_span(const Span& s, bool chunks_free);

  [[nodiscard]] std::uint32_t span_index_of_chunk(
      std::uint32_t chunk) const noexcept;
  [[nodiscard]] ChunkDesc* chunk_desc(std::uint32_t chunk) noexcept;
  [[nodiscard]] const ChunkDesc* chunk_desc(std::uint32_t chunk) const
      noexcept;
  /// Pool offset of a chunk's descriptor (redo staging target).
  [[nodiscard]] std::uint64_t desc_off(std::uint32_t chunk) const noexcept;
  /// Pool offset / direct pointer of a chunk's data.
  [[nodiscard]] std::uint64_t chunk_off(std::uint32_t chunk) const noexcept;
  [[nodiscard]] std::byte* chunk_data(std::uint32_t chunk) noexcept;
  [[nodiscard]] const std::byte* chunk_data(std::uint32_t chunk) const
      noexcept;
  [[nodiscard]] RunHeader* run_header(std::uint32_t chunk) noexcept;
  [[nodiscard]] const RunHeader* run_header(std::uint32_t chunk) const
      noexcept;
  /// A chunk's lock and the transient state it guards, one cache line per
  /// chunk so threads working in neighbouring chunks share no line.
  struct alignas(64) ChunkSlot {
    std::mutex mu;
    bool on_partial = false;  ///< listed in its class's partial_runs_
  };
  [[nodiscard]] ChunkSlot& chunk_slot(std::uint32_t chunk) const noexcept;
  [[nodiscard]] std::mutex& chunk_mutex(std::uint32_t chunk) const noexcept {
    return chunk_slot(chunk).mu;
  }

  /// Locates the chunk holding pool offset `off`; kInvalid when outside.
  [[nodiscard]] std::uint32_t chunk_of(std::uint64_t off) const noexcept;

  /// True when the (locked) run at `chunk` still has a free block.
  [[nodiscard]] bool run_has_free_block(std::uint32_t chunk) const noexcept;

  /// Records `chunk` in class `class_idx`'s partial-run hint list (no-op if
  /// already hinted).  The caller holds the chunk lock.
  void hint_partial(std::uint8_t class_idx, std::uint32_t chunk);

  /// The calling thread's current run of `class_idx` (kNoChunk when none),
  /// emptied first when the epoch moved on since it was cached.
  [[nodiscard]] std::uint32_t& current_run(int class_idx) const noexcept;

  /// Takes the calling thread's current run of `class_idx` when its lock is
  /// free and it is still a Run of that class with a free block; on success
  /// `a.owner` holds its chunk lock.
  bool take_current_run(int class_idx, PreparedAlloc& a);

  /// Picks a run of `class_idx` with a free block from the partial list,
  /// creating one if needed.  On return `a.owner` holds the run's chunk
  /// lock and `a.chunk` / `a.claimed_span` are set.
  void acquire_run(RedoSession& redo, int class_idx, PreparedAlloc& a);

  /// Moves the epoch on: every thread's current runs on this heap drop.
  void new_epoch() noexcept;

  /// The running counters, one cache-line shard per thread (up to
  /// kCounterShards threads; more share).  live/reserved are signed per
  /// shard because a block counted on one thread's shard may be freed on
  /// another's; only the sum is meaningful.
  enum Counter : std::size_t {
    kLive,
    kReserved,
    kAllocOps,
    kFreeOps,
    kRunLockSkips,
    kRunLockWaits,
    kClassContended,
    kChunkContended,
    kSpanContended,
    kCounterKinds
  };
  static constexpr std::size_t kCounterShards = 16;
  struct alignas(64) CounterShard {
    std::array<std::atomic<std::int64_t>, kCounterKinds> v{};
  };
  void count(Counter which, std::int64_t delta = 1) const noexcept;
  [[nodiscard]] std::int64_t sum(Counter which) const noexcept;
  /// Sets the occupancy sums (format/rebuild, single-threaded).
  void reset_occupancy(std::uint64_t live, std::uint64_t reserved) noexcept;

  /// Locks `mu`, counting a contended acquisition under `which` first.
  [[nodiscard]] std::unique_lock<std::mutex> lock_counted(
      std::mutex& mu, Counter which) const;

  /// Finds `span` contiguous transiently-free chunks within one heap span;
  /// kNoChunk sentinel (~0u) when exhausted.  Caller must hold span_mu_.
  [[nodiscard]] std::uint32_t find_free_span(std::uint32_t span) const;

  /// Returns [chunk, chunk+span) to the transient free map.
  void unclaim_span(std::uint32_t chunk, std::uint32_t span);

  /// Sums header + usable bytes over the allocated blocks of run `chunk`
  /// (caller holds the chunk lock or runs single-threaded); `blocks`, when
  /// given, is incremented once per allocated block.
  [[nodiscard]] std::uint64_t run_live_bytes(
      std::uint32_t chunk, std::uint32_t* blocks = nullptr) const;

  PersistentRegion* region_;
  std::uint64_t heap_off_;
  std::uint64_t heap_size_;

  // Span table (transient mirror).  Entries never change once published;
  // span_count_ is the acquire/release publication point so readers that
  // never take a lock (iteration, chunk lookup) see fully-written entries.
  std::array<Span, kMaxHeapSpans> spans_{};
  std::atomic<std::uint32_t> span_count_{0};
  std::atomic<std::uint32_t> chunk_count_{0};
  std::atomic<std::uint64_t> epoch_{0};  ///< see new_epoch()
  /// Per-span chunk-slot blocks (never freed on retract: a stats walker
  /// racing a shrink may still be parked on one).
  std::array<std::unique_ptr<ChunkSlot[]>, kMaxHeapSpans> chunk_slots_;

  // Transient state, sharded (see header comment for the lock order).
  std::vector<std::vector<std::uint32_t>> partial_runs_;  ///< per class
  std::array<std::mutex, kSizeClasses.size()> class_mu_;
  std::vector<bool> chunk_free_;  ///< transient mirror of Free state
  mutable std::mutex span_mu_;    ///< guards chunk_free_

  mutable std::array<CounterShard, kCounterShards> counters_;
};

}  // namespace cxlpmem::pmemkit

// core/checkpoint.hpp — transactional checkpoint/restart on PMem/CXL.
//
// The HPC use-case the paper leads with (§1.2): applications periodically
// persist diagnostics / solver state so a failed job restarts from the last
// epoch instead of from zero.  CheckpointStore implements the standard
// double-buffer discipline on a pmemkit pool, with a page-granular
// incremental engine on top:
//
//   * two payload slots; saves go to the inactive one;
//   * each slot carries a per-chunk fingerprint table (fixed chunk size,
//     default one 4 KiB page); save() fingerprints candidate chunks of the
//     new payload and rewrites only those whose fingerprint changed since
//     that slot was last sealed — most solver state is identical between
//     adjacent epochs, so an incremental save moves about the bytes the
//     solver dirtied, not whole multi-page chunks around them;
//   * the candidates come from the process's DirtyTracker
//     (dirty_tracker.hpp) when it tracks the payload: the chunks
//     overlapping pages written since the target slot's seal, plus the
//     chunks touching the span's two partial edge pages — so a save costs
//     O(dirty pages), not O(payload).  Otherwise (no userfaultfd, a new or
//     remapped buffer, a small span, an untrusted slot) every chunk is a
//     candidate: the same path with the full set;
//   * the fingerprinting and the copy of each dirty chunk (while its
//     source is still in cache) fan out over a numakit::ThreadPool when
//     the store was configured with threads (the facade binds the pool to
//     the namespace's NUMA placement) — Wahlgren et al. show a single
//     stream cannot saturate CXL bandwidth;
//   * one flusher: after the workers join, the saving thread flushes each
//     maximal dirty run once, writes the target's changed fingerprints and
//     issues a single drain, all while the slot is durably invalid — so
//     the table needs no undo log;
//   * one small transaction then seals the slot: {size, valid, active,
//     epoch} flip atomically;
//   * a crash at any instant leaves either epoch k or epoch k+1 — never a
//     torn checkpoint (CrashSimulator-verified in the tests).  A slot is
//     durably marked invalid before any of its bytes or fingerprints are
//     overwritten, so a save that dies mid-copy can never poison a later
//     incremental diff; the next save to that slot rewrites it in full and
//     clears the fingerprints past its payload.
//
// The payload must not change while save() runs (as before: a chunk
// written between its fingerprint and its copy would be sealed with a
// fingerprint that does not describe it).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dax.hpp"
#include "core/dirty_tracker.hpp"
#include "numakit/threadpool.hpp"

namespace cxlpmem::core {

/// Default incremental-save chunk: one 4 KiB page, the unit a solver
/// dirties, so a save writes about the pages that changed.  The table
/// costs 8 bytes per page (0.2% of the payload).
inline constexpr std::uint64_t kDefaultCheckpointChunk = 4096;

/// Engine knobs, fixed per store.  `chunk_size` is rounded to a 4 KiB
/// multiple and pinned into the pool at creation (reopens use the on-media
/// value, so a store and its pool never disagree about chunk framing).
/// `threads <= 1` keeps saves on the calling thread; larger values fan the
/// chunk copy out over a lazily-built ThreadPool whose workers are labelled
/// with `affinity` (the facade passes the cores of the namespace's NUMA
/// node; empty = thread index as core id).
struct CheckpointOptions {
  std::uint64_t chunk_size = kDefaultCheckpointChunk;
  int threads = 1;
  std::vector<simkit::CoreId> affinity;
};

/// How save() treats the previous epoch's chunk fingerprints.
enum class SaveMode {
  Incremental,  ///< rewrite only chunks whose checksum changed (default)
  Full,         ///< rewrite every chunk (baseline / paranoia mode)
};

/// What one save() actually did — the observability the bench and the
/// incremental tests key on.
struct SaveStats {
  std::uint64_t chunks_total = 0;    ///< chunks the payload spans
  std::uint64_t chunks_scanned = 0;  ///< chunks fingerprinted
  std::uint64_t chunks_written = 0;  ///< chunks copied + persisted
  std::uint64_t bytes_written = 0;   ///< payload bytes actually copied
  bool full_rewrite = false;  ///< no trusted fingerprints (or SaveMode::Full)
  /// The dirty-page tracker chose the candidate chunks; false means every
  /// chunk was fingerprinted.
  bool tracked = false;
  int threads_used = 1;  ///< workers the copy fanned out over
};

class CheckpointStore {
 public:
  /// Opens (or creates) pool `file` in `ns`, sized to hold two payloads of
  /// up to `max_payload_bytes`.  `allow_volatile` forwards to the namespace
  /// persistence check; `pool_options` allows model-tracked stores for
  /// crash testing; `options` sets the incremental-engine knobs.
  CheckpointStore(DaxNamespace& ns, const std::string& file,
                  std::uint64_t max_payload_bytes,
                  bool allow_volatile = false,
                  pmemkit::PoolOptions pool_options = pmemkit::PoolOptions(),
                  CheckpointOptions options = CheckpointOptions());

  /// Atomically replaces the checkpoint.  Throws on payloads larger than
  /// max_payload_bytes.  Incremental by default; SaveMode::Full forces a
  /// complete rewrite.  Returns what the save moved.
  SaveStats save(std::span<const std::byte> payload,
                 SaveMode mode = SaveMode::Incremental);

  /// The latest checkpoint payload; empty when none was ever saved.
  /// Heap-allocates a fresh copy — restart loops that already own a buffer
  /// should use load_into().
  [[nodiscard]] std::vector<std::byte> load() const;

  /// Copies the latest payload into `dst` without allocating; returns the
  /// number of bytes written (0 when nothing was ever saved).  Throws
  /// PoolError(CapacityExceeded) when `dst` is smaller than the payload —
  /// size the buffer with payload_bytes() or max_payload_bytes().
  std::uint64_t load_into(std::span<std::byte> dst) const;

  /// Size of the latest payload (0 when nothing was ever saved).
  [[nodiscard]] std::uint64_t payload_bytes() const;

  /// Monotonic save counter (0 = nothing saved yet).
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] bool has_checkpoint() const { return epoch() > 0; }
  [[nodiscard]] std::uint64_t max_payload_bytes() const noexcept {
    return max_payload_;
  }

  /// Effective chunk size (requested value rounded/pinned at creation; on
  /// reopen, the on-media value).
  [[nodiscard]] std::uint64_t chunk_size() const noexcept {
    return chunk_size_;
  }

  /// Stats of the most recent save() on this handle (zeroes before one).
  [[nodiscard]] const SaveStats& last_save() const noexcept {
    return last_save_;
  }

  /// True when the pool needed recovery at open (i.e. the writer crashed).
  [[nodiscard]] bool recovered() const { return pool_->recovered(); }

  /// Underlying pool (crash-test harness access).
  [[nodiscard]] pmemkit::ObjectPool& pool() noexcept { return *pool_; }

 private:
  // On-media root (layout "cxlpmem-checkpoint2").  `table[s]` holds one
  // uint64 fingerprint64 fingerprint per chunk of slot s (0 = none);
  // `valid[s]` is 1 only between a seal of slot s and the next save that
  // targets it — while 0, the fingerprints are untrusted, the next save
  // rewrites everything, and save() may write the table without logging.
  struct Root {
    pmemkit::ObjId slot[2];   ///< chunk data (null until first non-empty save)
    pmemkit::ObjId table[2];  ///< per-chunk fingerprint tables (fixed capacity)
    std::uint64_t size[2];
    std::uint32_t valid[2];
    std::uint64_t epoch;
    std::uint32_t active;
    std::uint32_t reserved;
    std::uint64_t chunk_size;      ///< pinned at creation
    std::uint64_t table_capacity;  ///< chunks per table, pinned at creation
  };

  [[nodiscard]] Root* root() const;
  void init_tables();
  SaveStats save_empty(Root* r, std::uint32_t target);
  /// The chunks save() fingerprints, ascending: all `nchunks` unless
  /// `plan` is tracked, else those overlapping a page it marks written or
  /// one of the span's partial edge pages.
  [[nodiscard]] std::vector<std::uint64_t> candidates(
      std::span<const std::byte> payload, std::uint64_t nchunks,
      const DirtyPlan& plan) const;
  /// Fingerprints each candidate chunk `cand[j]` of `payload` into
  /// `sums[j]` and copies it into `dst`, marking `dirty[j]`, when its
  /// fingerprint differs from `old_sums` (always unless `trusted`).  The
  /// copies are announced but neither flushed nor fenced.  Runs on the
  /// calling thread or the worker pool.
  void copy_chunks(std::byte* dst, std::span<const std::byte> payload,
                   const std::uint64_t* old_sums, bool trusted,
                   const std::vector<std::uint64_t>& cand,
                   std::vector<std::uint64_t>& sums,
                   std::vector<std::uint8_t>& dirty, SaveStats& stats);
  /// Flushes the copied chunks, writes and flushes the target's changed
  /// fingerprints (clearing stale ones past the payload unless `trusted`),
  /// then drains once.  The caller guarantees the slot is durably invalid.
  void persist_copy(std::byte* dst, std::uint64_t payload_bytes,
                    std::uint64_t nchunks, std::uint64_t* table,
                    bool trusted, const std::vector<std::uint64_t>& cand,
                    const std::vector<std::uint64_t>& sums,
                    const std::vector<std::uint8_t>& dirty);
  [[nodiscard]] numakit::ThreadPool* worker_pool();

  static constexpr const char* kLayout = "cxlpmem-checkpoint2";
  static constexpr std::uint32_t kPayloadType = 0x4350;  // 'CP'
  static constexpr std::uint32_t kTableType = 0x4354;    // 'CT'

  std::unique_ptr<pmemkit::ObjectPool> pool_;
  std::uint64_t max_payload_;
  std::uint64_t chunk_size_ = kDefaultCheckpointChunk;
  std::uint64_t table_capacity_ = 1;
  CheckpointOptions options_;
  /// The pool as the dirty-page tracker keys it; pool_id 0 (the file
  /// could not be identified) keeps every save on the full scan.
  TrackedPool identity_;
  std::unique_ptr<numakit::ThreadPool> workers_;  ///< lazily built
  SaveStats last_save_;
};

}  // namespace cxlpmem::core

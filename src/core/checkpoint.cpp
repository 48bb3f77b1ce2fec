#include "core/checkpoint.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "pmemkit/checksum.hpp"
#include "pmemkit/crash_hook.hpp"
#include "pmemkit/layout.hpp"

namespace cxlpmem::core {

namespace {

constexpr std::uint64_t round_up(std::uint64_t v, std::uint64_t to) {
  return (v + to - 1) / to * to;
}

/// The requested chunk size, sanitised to a non-zero 4 KiB multiple.
std::uint64_t effective_chunk_size(std::uint64_t requested) {
  return std::max<std::uint64_t>(round_up(requested, 4096), 4096);
}

/// Calls fn(begin, end) for every maximal run [begin, end) of indices in
/// [from, to) on which pred holds and for which adjacent(i) holds at each
/// i after the run's first.
template <typename Pred, typename Adjacent, typename Fn>
void for_each_run(std::uint64_t from, std::uint64_t to, Pred pred,
                  Adjacent adjacent, Fn fn) {
  for (std::uint64_t i = from; i < to;) {
    if (!pred(i)) {
      ++i;
      continue;
    }
    std::uint64_t j = i + 1;
    while (j < to && pred(j) && adjacent(j)) ++j;
    fn(i, j);
    i = j;
  }
}

/// The pool as the dirty-page tracker keys it (pool_id 0 when its file
/// cannot be identified).
TrackedPool identify(const pmemkit::ObjectPool& pool) {
  struct stat st{};
  if (pool.path().empty() || ::stat(pool.path().c_str(), &st) != 0) return {};
  return TrackedPool{static_cast<std::uint64_t>(st.st_dev),
                     static_cast<std::uint64_t>(st.st_ino), pool.pool_id()};
}

/// Bytes the slot allocation must provide for `payload` bytes: exact for
/// single-chunk payloads (the legacy exact-fit contract), whole chunks
/// above that so payload jitter within a chunk never forces a realloc (a
/// realloc discards every fingerprint).
std::uint64_t slot_usable_for(std::uint64_t payload, std::uint64_t chunk) {
  return payload <= chunk ? payload : round_up(payload, chunk);
}

/// Heap bytes a live allocation of `usable` bytes occupies — size class for
/// runs, whole 256 KiB heap chunks for huge spans.  Two usables with equal
/// footprints are "the same size" to the allocator, so reallocating between
/// them would churn without reclaiming anything.
std::uint64_t alloc_footprint(std::uint64_t usable) {
  const std::uint64_t total = usable + sizeof(pmemkit::AllocHeader);
  const int cls = pmemkit::size_class_for(total);
  if (cls >= 0) return pmemkit::kSizeClasses[static_cast<std::size_t>(cls)];
  return round_up(total, pmemkit::kChunkSize);
}

std::uint64_t pool_size_for(std::uint64_t max_payload,
                            std::uint64_t chunk_size,
                            std::uint64_t table_capacity) {
  // Two data slots (chunk-rounded + span slack), two checksum tables,
  // allocator slack + fixed overhead.
  const std::uint64_t per_slot =
      slot_usable_for(std::max<std::uint64_t>(max_payload, 1), chunk_size) +
      pmemkit::kChunkSize;
  const std::uint64_t per_table = round_up(
      table_capacity * sizeof(std::uint64_t) + pmemkit::kRunHeaderSize, 4096);
  return 2 * per_slot + 2 * per_table + max_payload / 2 +
         pmemkit::ObjectPool::min_pool_size() + 8 * pmemkit::kChunkSize;
}

}  // namespace

CheckpointStore::CheckpointStore(DaxNamespace& ns, const std::string& file,
                                 std::uint64_t max_payload_bytes,
                                 bool allow_volatile,
                                 pmemkit::PoolOptions pool_options,
                                 CheckpointOptions options)
    : max_payload_(max_payload_bytes), options_(std::move(options)) {
  chunk_size_ = effective_chunk_size(options_.chunk_size);
  table_capacity_ = std::max<std::uint64_t>(
      (max_payload_bytes + chunk_size_ - 1) / chunk_size_, 1);
  if (ns.pool_exists(file)) {
    pool_ = ns.open_pool(file, kLayout, pool_options);
  } else {
    pool_ = ns.create_pool(
        file, kLayout,
        pool_size_for(max_payload_bytes, chunk_size_, table_capacity_),
        allow_volatile, pool_options);
  }
  identity_ = identify(*pool_);
  init_tables();
}

CheckpointStore::Root* CheckpointStore::root() const {
  return pool_->direct(pool_->root<Root>());
}

void CheckpointStore::init_tables() {
  Root* r = root();
  if (!r->table[0].is_null()) {
    // Reopen: the media's framing wins over this handle's request — a store
    // and its pool must agree on chunk boundaries or fingerprints are
    // meaningless.
    chunk_size_ = r->chunk_size;
    table_capacity_ = r->table_capacity;
    return;
  }
  pool_->run_tx([&] {
    pool_->tx_add_range(r, sizeof(Root));
    r->chunk_size = chunk_size_;
    r->table_capacity = table_capacity_;
    r->table[0] = pool_->tx_alloc(table_capacity_ * sizeof(std::uint64_t),
                                  kTableType, /*zero=*/true);
    r->table[1] = pool_->tx_alloc(table_capacity_ * sizeof(std::uint64_t),
                                  kTableType, /*zero=*/true);
  });
}

numakit::ThreadPool* CheckpointStore::worker_pool() {
  if (options_.threads <= 1) return nullptr;
  if (!workers_) {
    std::vector<simkit::CoreId> assignment = options_.affinity;
    if (assignment.empty())
      for (int i = 0; i < options_.threads; ++i) assignment.push_back(i);
    // Fewer placement cores than threads: wrap (hyperthread-style stacking
    // on the namespace's node beats spilling to a far socket).
    const std::size_t base = assignment.size();
    while (static_cast<int>(assignment.size()) < options_.threads)
      assignment.push_back(assignment[assignment.size() % base]);
    assignment.resize(static_cast<std::size_t>(options_.threads));
    workers_ = std::make_unique<numakit::ThreadPool>(std::move(assignment));
  }
  return workers_.get();
}

SaveStats CheckpointStore::save_empty(Root* r, std::uint32_t target) {
  // An empty epoch needs no copy phase: free the slot (the stale payload
  // would otherwise pin peak capacity forever) and flip in one transaction.
  pool_->run_tx([&] {
    pool_->tx_add_range(r, sizeof(Root));
    if (!r->slot[target].is_null()) {
      pool_->tx_free(r->slot[target]);
      r->slot[target] = pmemkit::kNullOid;
    }
    r->size[target] = 0;
    r->valid[target] = 0;  // no fingerprints to trust
    r->active = target;
    r->epoch += 1;
  });
  SaveStats stats;
  last_save_ = stats;
  return stats;
}

std::vector<std::uint64_t> CheckpointStore::candidates(
    std::span<const std::byte> payload, std::uint64_t nchunks,
    const DirtyPlan& plan) const {
  std::vector<std::uint64_t> out;
  if (!plan.tracked) {
    out.resize(nchunks);
    std::iota(out.begin(), out.end(), std::uint64_t{0});
    return out;
  }
  // Byte ranges of the payload arrive in ascending order; `next` is the
  // first chunk not yet listed, so a chunk two pages share is listed once.
  std::uint64_t next = 0;
  const auto add = [&](std::uint64_t from, std::uint64_t to) {
    if (from >= to) return;
    const std::uint64_t last = std::min((to - 1) / chunk_size_ + 1, nchunks);
    for (std::uint64_t c = std::max(from / chunk_size_, next); c < last; ++c)
      out.push_back(c);
    next = std::max(next, last);
  };
  const std::uint64_t head =
      plan.first_page - reinterpret_cast<std::uintptr_t>(payload.data());
  add(0, head);  // the leading partial page, never armed
  for (std::size_t w = 0; w < plan.written.size(); ++w)
    for (std::uint64_t bits = plan.written[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t page =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
      add(head + page * kTrackerPage, head + (page + 1) * kTrackerPage);
    }
  add(head + plan.pages * kTrackerPage, payload.size());  // trailing page
  return out;
}

void CheckpointStore::copy_chunks(std::byte* dst,
                                  std::span<const std::byte> payload,
                                  const std::uint64_t* old_sums, bool trusted,
                                  const std::vector<std::uint64_t>& cand,
                                  std::vector<std::uint64_t>& sums,
                                  std::vector<std::uint8_t>& dirty,
                                  SaveStats& stats) {
  struct Tally {
    std::uint64_t chunks = 0, bytes = 0;
  };
  // Each dirty chunk is copied right after its fingerprint, while the
  // source bytes are still in cache; a range's tally is published once.
  const auto copy_range = [&](std::uint64_t begin, std::uint64_t end,
                              Tally& out) {
    Tally t;
    for (std::uint64_t j = begin; j < end; ++j) {
      const std::uint64_t i = cand[j];
      const std::uint64_t off = i * chunk_size_;
      const std::uint64_t n = std::min(chunk_size_, payload.size() - off);
      sums[j] = pmemkit::fingerprint64(payload.data() + off, n);
      if (trusted && old_sums[i] == sums[j]) continue;
      dirty[j] = 1;
      // pmemlint: allow(announced below, flushed by persist_copy)
      std::memcpy(dst + off, payload.data() + off, n);
      // The announcement tells the persistency tooling these lines were
      // deliberately rewritten even when some happen to match the previous
      // epoch — a dirty chunk is rewritten whole.
      pool_->note_store(dst + off, n);
      ++t.chunks;
      t.bytes += n;
    }
    out.chunks += t.chunks;
    out.bytes += t.bytes;
  };

  const std::uint64_t ncand = cand.size();
  // Crash hooks are single-threaded by contract, so an installed hook (or a
  // serial configuration) keeps the copy on the calling thread — which is
  // also what gives the crash sweep its deterministic per-chunk points.
  numakit::ThreadPool* pool = worker_pool();
  const bool serial = pool == nullptr || pmemkit::crash_hook_installed();
  std::vector<Tally> tallies(
      serial ? 1 : static_cast<std::size_t>(pool->size()));
  if (serial) {
    for (std::uint64_t j = 0; j < ncand; ++j) {
      copy_range(j, j + 1, tallies[0]);
      pmemkit::crash_point("ckpt:chunk");
    }
  } else {
    pool->parallel_for(ncand, [&](int w, std::uint64_t begin,
                                  std::uint64_t end) {
      copy_range(begin, end, tallies[static_cast<std::size_t>(w)]);
    });
  }
  stats.chunks_scanned = ncand;
  stats.threads_used = static_cast<int>(tallies.size());
  for (const Tally& t : tallies) {
    stats.chunks_written += t.chunks;
    stats.bytes_written += t.bytes;
  }
}

void CheckpointStore::persist_copy(std::byte* dst,
                                   std::uint64_t payload_bytes,
                                   std::uint64_t nchunks,
                                   std::uint64_t* table, bool trusted,
                                   const std::vector<std::uint64_t>& cand,
                                   const std::vector<std::uint64_t>& sums,
                                   const std::vector<std::uint8_t>& dirty) {
  // Runs are over candidate positions whose chunks are consecutive.
  const auto adjacent = [&](std::uint64_t j) {
    return cand[j] == cand[j - 1] + 1;
  };
  // Each maximal dirty run is flushed once.  Runs are at least one clean
  // chunk apart, so no cache line is flushed twice although chunk
  // boundaries split lines (slot data starts 16 B into one).
  for_each_run(
      0, cand.size(), [&](std::uint64_t j) { return dirty[j] != 0; },
      adjacent,
      [&](std::uint64_t b, std::uint64_t e) {
        const std::uint64_t off = cand[b] * chunk_size_;
        pool_->flush(dst + off,
                     std::min((cand[e - 1] + 1) * chunk_size_,
                              payload_bytes) -
                         off);
      });

  const auto publish = [&](std::uint64_t b, std::uint64_t e) {
    pool_->note_store(table + b, (e - b) * sizeof(std::uint64_t));
    pool_->flush(table + b, (e - b) * sizeof(std::uint64_t));
  };
  for_each_run(
      0, cand.size(),
      [&](std::uint64_t j) { return table[cand[j]] != sums[j]; }, adjacent,
      [&](std::uint64_t b, std::uint64_t e) {
        std::copy(sums.begin() + static_cast<std::ptrdiff_t>(b),
                  sums.begin() + static_cast<std::ptrdiff_t>(e),
                  table + cand[b]);
        publish(cand[b], cand[b] + (e - b));
      });
  // An untrusted save may follow a crashed one that rewrote chunks past
  // this payload without updating their fingerprints.  Left in place, those
  // entries would vouch for the crashed bytes as soon as a later trusted
  // save grows the payload back, so they are cleared (fingerprint64 never
  // returns 0, so a zero entry never matches).  A trusted save leaves them:
  // since the last untrusted save, every non-zero entry describes the
  // slot's bytes.
  if (!trusted)
    for_each_run(
        nchunks, table_capacity_,
        [&](std::uint64_t i) { return table[i] != 0; },
        [](std::uint64_t) { return true; },
        [&](std::uint64_t b, std::uint64_t e) {
          std::fill(table + b, table + e, 0);
          publish(b, e);
        });
  pool_->drain();
}

SaveStats CheckpointStore::save(std::span<const std::byte> payload,
                                SaveMode mode) {
  if (payload.size() > max_payload_)
    throw pmemkit::PoolError(pmemkit::ErrKind::CapacityExceeded,
                             "checkpoint payload exceeds store maximum");
  Root* r = root();
  const std::uint32_t target = 1 - (r->epoch == 0 ? 1 : r->active);
  if (payload.empty()) return save_empty(r, target);

  const std::uint64_t nchunks =
      (payload.size() + chunk_size_ - 1) / chunk_size_;
  if (nchunks > table_capacity_)
    throw pmemkit::PoolError(
        pmemkit::ErrKind::CapacityExceeded,
        "checkpoint payload spans " + std::to_string(nchunks) +
            " chunks, table holds " + std::to_string(table_capacity_));

  SaveStats stats;
  stats.chunks_total = nchunks;

  // Exact-fit sizing: realloc when the slot is too small OR when a fresh
  // allocation would occupy a smaller heap footprint — shrinking grossly
  // oversized slots is what keeps sawtooth payloads from pinning peak
  // capacity forever.
  const std::uint64_t needed = slot_usable_for(payload.size(), chunk_size_);
  const bool realloc =
      r->slot[target].is_null() ||
      pool_->usable_size(r->slot[target]) < needed ||
      alloc_footprint(pool_->usable_size(r->slot[target])) !=
          alloc_footprint(needed);
  const bool trusted =
      !realloc && r->valid[target] != 0 && mode == SaveMode::Incremental;
  stats.full_rewrite = !trusted;

  // Ask the tracker which pages changed since the target's seal before any
  // payload byte is read.  An unidentified pool never arms a range.
  DirtyTracker& tracker = DirtyTracker::process();
  const DirtyPlan plan =
      identity_.pool_id == 0
          ? DirtyPlan{}
          : tracker.begin_save(payload, identity_, target, r->epoch, trusted);
  stats.tracked = plan.tracked;
  const std::vector<std::uint64_t> cand = candidates(payload, nchunks, plan);

  // Phase A — prepare: durably invalidate the target slot BEFORE any of its
  // bytes or fingerprints change (a crash mid-copy must never leave
  // fingerprints that claim to describe the half-overwritten contents),
  // reallocating if needed.
  if (realloc || r->valid[target] != 0) {
    pool_->run_tx([&] {
      pool_->tx_add_range(r, sizeof(Root));
      r->valid[target] = 0;
      if (realloc) {
        if (!r->slot[target].is_null()) pool_->tx_free(r->slot[target]);
        r->slot[target] = pool_->tx_alloc(needed, kPayloadType);
      }
    });
  }
  pmemkit::crash_point("ckpt:prepared");

  // Phase B — copy: fingerprint the candidates, copy the dirty ones.
  auto* dst = static_cast<std::byte*>(pool_->direct(r->slot[target]));
  auto* table = static_cast<std::uint64_t*>(pool_->direct(r->table[target]));
  std::vector<std::uint64_t> sums(cand.size());
  std::vector<std::uint8_t> dirty(cand.size(), 0);
  copy_chunks(dst, payload, table, trusted, cand, sums, dirty, stats);
  pmemkit::crash_point("ckpt:chunks-done");

  // Phase C — persist the copy and the target's fingerprints with one
  // drain.  The table needs no undo log: valid[target] is durably 0, so a
  // crash before the seal leaves the slot untrusted whatever the table
  // holds.
  persist_copy(dst, payload.size(), nchunks, table, trusted, cand, sums,
               dirty);
  pmemkit::crash_point("ckpt:table");

  // Phase D — seal: one small transaction flips {size, valid, active,
  // epoch} atomically.
  pool_->run_tx([&] {
    pool_->tx_add_range(r, sizeof(Root));
    r->size[target] = payload.size();
    r->valid[target] = 1;
    r->active = target;
    r->epoch += 1;
  });
  if (plan.armed) tracker.sealed(plan, payload, identity_, target, r->epoch);

  last_save_ = stats;
  return stats;
}

std::vector<std::byte> CheckpointStore::load() const {
  std::vector<std::byte> out(payload_bytes());
  (void)load_into(out);
  return out;
}

std::uint64_t CheckpointStore::load_into(std::span<std::byte> dst) const {
  const Root* r = root();
  if (r->epoch == 0) return 0;
  const std::uint64_t n = r->size[r->active];
  if (n > dst.size())
    throw pmemkit::PoolError(
        pmemkit::ErrKind::CapacityExceeded,
        "load_into buffer (" + std::to_string(dst.size()) +
            " bytes) smaller than checkpoint payload (" + std::to_string(n) +
            " bytes)");
  if (n > 0)
    // pmemlint: allow(restore path — reads pool bytes into the caller's buffer)
    std::memcpy(dst.data(), pool_->direct(r->slot[r->active]), n);
  return n;
}

std::uint64_t CheckpointStore::payload_bytes() const {
  const Root* r = root();
  return r->epoch == 0 ? 0 : r->size[r->active];
}

std::uint64_t CheckpointStore::epoch() const { return root()->epoch; }

}  // namespace cxlpmem::core

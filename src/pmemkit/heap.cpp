#include "pmemkit/heap.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "pmemkit/crash_hook.hpp"
#include "pmemkit/errors.hpp"

namespace cxlpmem::pmemkit {

namespace {

constexpr std::uint32_t kNoChunk = ~0u;

/// Reinterprets a ChunkDesc as the u64 a redo cell stores.
std::uint64_t desc_word(ChunkDesc d) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, &d, sizeof(d));
  return w;
}

/// Second word of an AllocHeader (type_num | flags).
std::uint64_t alloc_word(std::uint32_t type_num,
                         std::uint32_t flags) noexcept {
  return static_cast<std::uint64_t>(type_num) |
         (static_cast<std::uint64_t>(flags) << 32);
}

/// 1 - live/reserved, clamped to [0, 1]; 0 for an empty heap.
double fragmentation_of(std::uint64_t live, std::uint64_t reserved) noexcept {
  if (reserved == 0 || live >= reserved) return 0.0;
  return 1.0 - static_cast<double>(live) / static_cast<double>(reserved);
}

/// Source of heap epochs: process-unique, so a thread's cached runs can
/// never match a different heap, or one reopened at the same address.
std::atomic<std::uint64_t> g_heap_epochs{0};

/// A thread's current run per size class, valid for one heap epoch.
/// Epoch 0 is never issued, so a fresh or forgotten cache matches nothing.
struct CurrentRuns {
  std::uint64_t epoch = 0;
  std::array<std::uint32_t, kSizeClasses.size()> chunk{};
};
thread_local CurrentRuns t_current_runs;

/// The calling thread's number, which picks its counter shard in every
/// heap: threads are numbered in first-count order, so up to the shard
/// count each gets a shard of its own.
std::size_t thread_number() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t number =
      next.fetch_add(1, std::memory_order_relaxed);
  return number;
}

}  // namespace

Heap::Span Heap::solve_span(std::uint64_t off, std::uint64_t size) const {
  if (off + size > region_->size())
    throw PoolError(ErrKind::CorruptImage, "heap span exceeds pool");
  // Solve for the chunk count given the table consumes span space too.
  std::uint64_t n = size / kChunkSize;
  while (n > 0) {
    const std::uint64_t table =
        (n * sizeof(ChunkDesc) + kAllocAlign - 1) / kAllocAlign * kAllocAlign;
    if (table + n * kChunkSize <= size) break;
    --n;
  }
  if (n == 0)
    throw PoolError(ErrKind::PoolTooSmall,
                    "heap span too small for a single chunk");
  const std::uint64_t table =
      (n * sizeof(ChunkDesc) + kAllocAlign - 1) / kAllocAlign * kAllocAlign;
  Span s;
  s.off = off;
  s.size = size;
  s.chunks_off = off + table;
  s.first_chunk = chunk_count_.load(std::memory_order_relaxed);
  s.chunk_count = static_cast<std::uint32_t>(n);
  return s;
}

void Heap::publish_span(const Span& s, bool chunks_free) {
  const std::uint32_t idx = span_count_.load(std::memory_order_relaxed);
  if (idx >= kMaxHeapSpans)
    throw PoolError(ErrKind::CorruptImage, "too many heap spans");
  spans_[idx] = s;
  chunk_slots_[idx] = std::make_unique<ChunkSlot[]>(s.chunk_count);
  {
    const auto lock = lock_counted(span_mu_, kSpanContended);
    chunk_free_.resize(std::size_t{s.first_chunk} + s.chunk_count,
                       chunks_free);
  }
  chunk_count_.store(s.first_chunk + s.chunk_count,
                     std::memory_order_relaxed);
  span_count_.store(idx + 1, std::memory_order_release);
}

Heap::Heap(PersistentRegion& region, std::uint64_t heap_off,
           std::uint64_t heap_size)
    : region_(&region), heap_off_(heap_off), heap_size_(heap_size) {
  new_epoch();
  partial_runs_.assign(kSizeClasses.size(), {});
  publish_span(solve_span(heap_off, heap_size), /*chunks_free=*/false);
}

void Heap::adopt_span(std::uint64_t off, std::uint64_t size) {
  publish_span(solve_span(off, size), /*chunks_free=*/false);
}

std::uint32_t Heap::extend_span(std::uint64_t off, std::uint64_t size) {
  const Span s = solve_span(off, size);
  ChunkDesc* table = reinterpret_cast<ChunkDesc*>(region_->base() + s.off);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c)
    table[c] = ChunkDesc{static_cast<std::uint8_t>(ChunkState::Free), 0, 0, 0};
  region_->note_store_infra(table, s.chunk_count * sizeof(ChunkDesc));
  region_->persist(table, s.chunk_count * sizeof(ChunkDesc));
  publish_span(s, /*chunks_free=*/true);
  return s.chunk_count;
}

std::uint32_t Heap::span_count() const noexcept {
  return span_count_.load(std::memory_order_acquire);
}

HeapSpan Heap::span_extent(std::uint32_t idx) const noexcept {
  return HeapSpan{spans_[idx].off, spans_[idx].size};
}

bool Heap::span_retractable(std::uint32_t idx) const {
  const Span& s = spans_[idx];
  const auto lock = lock_counted(span_mu_, kSpanContended);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c) {
    const ChunkDesc& d =
        reinterpret_cast<const ChunkDesc*>(region_->base() + s.off)[c];
    if (static_cast<ChunkState>(d.state) != ChunkState::Free ||
        !chunk_free_[s.first_chunk + c])
      return false;
  }
  return true;
}

void Heap::retract_span() {
  const std::uint32_t n = span_count_.load(std::memory_order_relaxed);
  if (n <= 1)
    throw PoolError(ErrKind::TxMisuse, "base heap span cannot be retracted");
  const Span& s = spans_[n - 1];
  // Persistent occupancy and transient claims must both be clear; the
  // caller has quiesced transactions, so nothing can slip in between the
  // check and the unpublish below (both run under span_mu_).
  const auto lock = lock_counted(span_mu_, kSpanContended);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c) {
    const ChunkDesc& d =
        reinterpret_cast<const ChunkDesc*>(region_->base() + s.off)[c];
    if (static_cast<ChunkState>(d.state) != ChunkState::Free ||
        !chunk_free_[s.first_chunk + c])
      throw PoolError(ErrKind::ShrinkBlocked,
                      "live objects occupy the span a shrink would drop");
  }
  chunk_free_.resize(s.first_chunk);
  chunk_count_.store(s.first_chunk, std::memory_order_relaxed);
  span_count_.store(n - 1, std::memory_order_release);
  new_epoch();  // current runs may name the dropped chunks
}

std::uint32_t Heap::span_index_of_chunk(std::uint32_t chunk) const noexcept {
  const std::uint32_t n = span_count_.load(std::memory_order_acquire);
  std::uint32_t i = n - 1;
  while (i > 0 && spans_[i].first_chunk > chunk) --i;
  return i;
}

std::uint32_t Heap::reclaim_empty_runs() {
  const std::uint32_t total = chunk_count_.load(std::memory_order_acquire);
  std::uint32_t reclaimed = 0;
  for (std::uint32_t c = 0; c < total; ++c) {
    const std::lock_guard<std::mutex> lock(chunk_mutex(c));
    const ChunkDesc d = *chunk_desc(c);
    if (static_cast<ChunkState>(d.state) != ChunkState::Run) continue;
    const RunHeader* rh = run_header(c);
    bool empty = true;
    for (std::uint32_t w = 0; w * 64 < rh->block_count && empty; ++w)
      empty = rh->bitmap[w] == 0;
    if (!empty) continue;

    // One aligned word flip, crash-safe without a log: an empty Run and a
    // Free chunk describe the same zero live objects, so either side of
    // the write is a valid image.  The stale RunHeader is inert once the
    // descriptor stops naming the chunk a Run.
    const ChunkDesc free_desc{static_cast<std::uint8_t>(ChunkState::Free), 0,
                              0, 0};
    const std::uint64_t word = desc_word(free_desc);
    region_->memcpy_persist(region_->base() + desc_off(c), &word,
                            sizeof(word));

    // Retire the transient hints (lock order: chunk -> class -> span).
    if (chunk_slot(c).on_partial) {
      const auto cl = lock_counted(class_mu_[d.class_idx], kClassContended);
      auto& partials = partial_runs_[d.class_idx];
      partials.erase(std::remove(partials.begin(), partials.end(), c),
                     partials.end());
      chunk_slot(c).on_partial = false;
    }
    {
      const auto sl = lock_counted(span_mu_, kSpanContended);
      chunk_free_[c] = true;
    }
    count(kReserved, -static_cast<std::int64_t>(kChunkSize));
    new_epoch();  // a run became Free: no thread may keep it current
    ++reclaimed;
  }
  return reclaimed;
}

ChunkDesc* Heap::chunk_desc(std::uint32_t chunk) noexcept {
  return reinterpret_cast<ChunkDesc*>(region_->base() + desc_off(chunk));
}
const ChunkDesc* Heap::chunk_desc(std::uint32_t chunk) const noexcept {
  return reinterpret_cast<const ChunkDesc*>(region_->base() +
                                            desc_off(chunk));
}
std::uint64_t Heap::desc_off(std::uint32_t chunk) const noexcept {
  assert(chunk < chunk_count_.load(std::memory_order_relaxed));
  const Span& s = spans_[span_index_of_chunk(chunk)];
  return s.off + std::uint64_t{chunk - s.first_chunk} * sizeof(ChunkDesc);
}
std::uint64_t Heap::chunk_off(std::uint32_t chunk) const noexcept {
  const Span& s = spans_[span_index_of_chunk(chunk)];
  return s.chunks_off + std::uint64_t{chunk - s.first_chunk} * kChunkSize;
}
std::byte* Heap::chunk_data(std::uint32_t chunk) noexcept {
  return region_->base() + chunk_off(chunk);
}
const std::byte* Heap::chunk_data(std::uint32_t chunk) const noexcept {
  return region_->base() + chunk_off(chunk);
}
RunHeader* Heap::run_header(std::uint32_t chunk) noexcept {
  return reinterpret_cast<RunHeader*>(chunk_data(chunk));
}
const RunHeader* Heap::run_header(std::uint32_t chunk) const noexcept {
  return reinterpret_cast<const RunHeader*>(chunk_data(chunk));
}
Heap::ChunkSlot& Heap::chunk_slot(std::uint32_t chunk) const noexcept {
  assert(chunk < chunk_count_.load(std::memory_order_relaxed));
  const std::uint32_t i = span_index_of_chunk(chunk);
  return chunk_slots_[i][chunk - spans_[i].first_chunk];
}

std::uint32_t Heap::chunk_of(std::uint64_t off) const noexcept {
  const std::uint32_t n = span_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (off < s.chunks_off ||
        off >= s.chunks_off + std::uint64_t{s.chunk_count} * kChunkSize)
      continue;
    return s.first_chunk +
           static_cast<std::uint32_t>((off - s.chunks_off) / kChunkSize);
  }
  return kNoChunk;
}

void Heap::format() {
  // Create path: only the base span exists.
  const Span& s = spans_[0];
  ChunkDesc* table = reinterpret_cast<ChunkDesc*>(region_->base() + s.off);
  for (std::uint32_t c = 0; c < s.chunk_count; ++c)
    table[c] = ChunkDesc{static_cast<std::uint8_t>(ChunkState::Free), 0, 0, 0};
  region_->note_store_infra(table, s.chunk_count * sizeof(ChunkDesc));
  region_->persist(table, s.chunk_count * sizeof(ChunkDesc));
  partial_runs_.assign(kSizeClasses.size(), {});
  for (std::uint32_t c = 0; c < s.chunk_count; ++c)
    chunk_slot(c).on_partial = false;
  reset_occupancy(0, 0);
  new_epoch();
  const auto lock = lock_counted(span_mu_, kSpanContended);
  chunk_free_.assign(chunk_count_.load(std::memory_order_relaxed), true);
}

void Heap::rebuild() {
  partial_runs_.assign(kSizeClasses.size(), {});
  new_epoch();
  {
    const auto lock = lock_counted(span_mu_, kSpanContended);
    chunk_free_.assign(chunk_count_.load(std::memory_order_relaxed), false);
  }
  std::uint64_t live = 0, reserved = 0;
  const std::uint32_t spans = span_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < spans; ++i) {
    const Span& s = spans_[i];
    const std::uint32_t end = s.first_chunk + s.chunk_count;
    for (std::uint32_t c = s.first_chunk; c < end; ++c)
      chunk_slot(c).on_partial = false;
    std::uint32_t c = s.first_chunk;
    while (c < end) {
      const ChunkDesc& d = *chunk_desc(c);
      switch (static_cast<ChunkState>(d.state)) {
        case ChunkState::Free:
          chunk_free_[c] = true;
          ++c;
          break;
        case ChunkState::Run: {
          if (d.class_idx >= kSizeClasses.size())
            throw PoolError(ErrKind::CorruptImage, "corrupt run descriptor");
          const RunHeader* rh = run_header(c);
          if (rh->class_idx != d.class_idx)
            throw PoolError(ErrKind::CorruptImage, "run header / descriptor class mismatch");
          std::uint32_t used = 0;
          for (const std::uint64_t w : rh->bitmap)
            used += static_cast<std::uint32_t>(std::popcount(w));
          if (used > rh->block_count) throw PoolError(ErrKind::CorruptImage, "corrupt run bitmap");
          if (used < rh->block_count) {
            partial_runs_[d.class_idx].push_back(c);
            chunk_slot(c).on_partial = true;
          }
          live += run_live_bytes(c);
          reserved += kChunkSize;
          ++c;
          break;
        }
        case ChunkState::HugeHead: {
          if (d.span == 0 || c + d.span > end)
            throw PoolError(ErrKind::CorruptImage, "corrupt huge span");
          live += reinterpret_cast<const AllocHeader*>(chunk_data(c))->size +
                  sizeof(AllocHeader);
          reserved += std::uint64_t{d.span} * kChunkSize;
          c += d.span;  // covered chunks keep stale descriptors; skip them
          break;
        }
        default:
          throw PoolError(ErrKind::CorruptImage, "unknown chunk state");
      }
    }
  }
  reset_occupancy(live, reserved);
}

std::uint32_t Heap::find_free_span(std::uint32_t span) const {
  // Huge spans are address-contiguous, and addresses only stay contiguous
  // within one heap span — the search never crosses a span boundary.
  const std::uint32_t spans = span_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < spans; ++i) {
    const std::uint32_t end = spans_[i].first_chunk + spans_[i].chunk_count;
    std::uint32_t run_start = 0, run_len = 0;
    for (std::uint32_t c = spans_[i].first_chunk; c < end; ++c) {
      if (chunk_free_[c]) {
        if (run_len == 0) run_start = c;
        if (++run_len == span) return run_start;
      } else {
        run_len = 0;
      }
    }
  }
  return kNoChunk;
}

void Heap::unclaim_span(std::uint32_t chunk, std::uint32_t span) {
  const auto lock = lock_counted(span_mu_, kSpanContended);
  const std::uint32_t total = chunk_count_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < span && chunk + i < total; ++i)
    chunk_free_[chunk + i] = true;
}

bool Heap::run_has_free_block(std::uint32_t chunk) const noexcept {
  const RunHeader* rh = run_header(chunk);
  for (std::uint32_t w = 0; w * 64 < rh->block_count; ++w)
    if (std::popcount(rh->bitmap[w]) < 64 &&
        w * 64 + static_cast<std::uint32_t>(std::countr_one(rh->bitmap[w])) <
            rh->block_count)
      return true;
  return false;
}

void Heap::forget_current_runs() noexcept { t_current_runs.epoch = 0; }

void Heap::new_epoch() noexcept {
  epoch_.store(g_heap_epochs.fetch_add(1, std::memory_order_relaxed) + 1,
               std::memory_order_release);
}

std::uint32_t& Heap::current_run(int class_idx) const noexcept {
  CurrentRuns& runs = t_current_runs;
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (runs.epoch != epoch) {
    runs.epoch = epoch;
    runs.chunk.fill(kNoChunk);
  }
  return runs.chunk[static_cast<std::size_t>(class_idx)];
}

std::uint32_t Heap::current_run_of(int class_idx) const noexcept {
  return current_run(class_idx);
}

bool Heap::take_current_run(int class_idx, PreparedAlloc& a) {
  const std::uint32_t c = current_run(class_idx);
  // An index past the heap names a retracted span; its slot and descriptor
  // no longer exist.
  if (c >= chunk_count_.load(std::memory_order_acquire)) return false;
  std::unique_lock<std::mutex> lk(chunk_mutex(c), std::try_to_lock);
  if (!lk.owns_lock()) {
    count(kRunLockSkips);
    return false;
  }
  // Re-validate under the lock: the run may have filled up, or have been
  // reclaimed (and the chunk reused) since the thread made it current.
  const ChunkDesc& d = *chunk_desc(c);
  if (static_cast<ChunkState>(d.state) != ChunkState::Run ||
      d.class_idx != static_cast<std::uint8_t>(class_idx) ||
      !run_has_free_block(c))
    return false;
  a.chunk = c;
  a.claimed_span = 0;
  a.owner = std::move(lk);
  return true;
}

void Heap::acquire_run(RedoSession& redo, int class_idx, PreparedAlloc& a) {
  for (;;) {
    // (1) An idle partial run of this class.  Busy runs are skipped, not
    // waited on — that skip IS the sharding: concurrent same-class
    // allocations fan out across runs.
    std::uint32_t busy_candidate = kNoChunk;
    {
      const auto cl = lock_counted(class_mu_[class_idx], kClassContended);
      auto& partials = partial_runs_[class_idx];
      for (std::size_t i = partials.size(); i-- > 0;) {
        const std::uint32_t c = partials[i];
        std::unique_lock<std::mutex> lk(chunk_mutex(c), std::try_to_lock);
        if (!lk.owns_lock()) {
          count(kRunLockSkips);
          busy_candidate = c;
          continue;
        }
        if (run_has_free_block(c)) {
          a.chunk = c;
          a.claimed_span = 0;
          a.owner = std::move(lk);
          return;
        }
        partials.erase(partials.begin() +
                       static_cast<std::ptrdiff_t>(i));  // stale: full
        chunk_slot(c).on_partial = false;
      }
    }

    // (2) Materialize a new run on a free chunk.  The chunk is claimed
    // transiently under span_mu_ BEFORE its descriptor is staged, so a
    // concurrent span search cannot hand it out twice; cancel_alloc returns
    // the claim.  The RunHeader write is inert until the staged descriptor
    // commits.
    std::uint32_t c = kNoChunk;
    {
      const auto sl = lock_counted(span_mu_, kSpanContended);
      c = find_free_span(1);
      if (c != kNoChunk) chunk_free_[c] = false;
    }
    if (c != kNoChunk) {
      // May briefly wait for a previous owner (e.g. a huge free) to finish.
      std::unique_lock<std::mutex> lk =
          lock_counted(chunk_mutex(c), kChunkContended);
      try {
        RunHeader rh{};
        rh.class_idx = static_cast<std::uint32_t>(class_idx);
        rh.block_count = blocks_per_run(kSizeClasses[class_idx]);
        region_->memcpy_persist(run_header(c), &rh, sizeof(rh));
        ChunkDesc d{static_cast<std::uint8_t>(ChunkState::Run),
                    static_cast<std::uint8_t>(class_idx), 0, 0};
        redo.stage(desc_off(c), desc_word(d));
      } catch (...) {
        lk.unlock();
        unclaim_span(c, 1);
        throw;
      }
      a.chunk = c;
      a.claimed_span = 1;
      a.owner = std::move(lk);
      return;
    }

    if (busy_candidate == kNoChunk)
      throw AllocError(ErrKind::OutOfSpace, "out of contiguous heap space");

    // (3) No free chunk and every partial run is mid-operation: wait for
    // one (no other lock held, so this cannot deadlock) and re-validate —
    // its holder may have taken the last block.
    count(kRunLockWaits);
    std::unique_lock<std::mutex> lk =
        lock_counted(chunk_mutex(busy_candidate), kChunkContended);
    const ChunkDesc& d = *chunk_desc(busy_candidate);
    if (static_cast<ChunkState>(d.state) == ChunkState::Run &&
        d.class_idx == static_cast<std::uint8_t>(class_idx) &&
        run_has_free_block(busy_candidate)) {
      a.chunk = busy_candidate;
      a.claimed_span = 0;
      a.owner = std::move(lk);
      return;
    }
  }
}

PreparedAlloc Heap::stage_alloc(RedoSession& redo, std::uint64_t usable,
                                std::uint32_t type_num, bool zero) {
  // Nothing durable may happen before this point: the stage writes the
  // AllocHeader (and a fresh run's RunHeader), and a thread that has not
  // seen a power cut yet must not write them into a block a cut lane's
  // published-but-unapplied redo log already allocated.
  crash_point("heap:stage");
  if (usable == 0) throw AllocError(ErrKind::BadAlloc, "zero-size allocation");
  count(kAllocOps);
  const std::uint64_t total = usable + sizeof(AllocHeader);
  PreparedAlloc out;

  const int cls = size_class_for(total);
  std::uint64_t block_off;  // pool offset of the block start
  if (cls >= 0) {
    const std::uint32_t block = kSizeClasses[cls];
    if (!take_current_run(cls, out)) {
      acquire_run(redo, cls, out);
      current_run(cls) = out.chunk;
    }
    const std::uint32_t c = out.chunk;
    const RunHeader* rh = run_header(c);
    try {
      // acquire_run guarantees a free bit below block_count, and chunk
      // ownership keeps the bitmap stable until finish/cancel.
      std::uint32_t idx = 0;
      for (std::uint32_t w = 0;; ++w) {
        const std::uint32_t bit =
            static_cast<std::uint32_t>(std::countr_one(rh->bitmap[w]));
        if (bit < 64 && w * 64 + bit < rh->block_count) {
          idx = w * 64 + bit;
          redo.stage(chunk_off(c) + offsetof(RunHeader, bitmap) + w * 8,
                     rh->bitmap[w] | (1ull << bit));
          break;
        }
      }
      block_off =
          chunk_off(c) + kRunHeaderSize + std::uint64_t{idx} * block;
      out.total_size = block;
    } catch (...) {
      cancel_alloc(out);
      throw;
    }
  } else {
    const auto span = static_cast<std::uint32_t>(
        (total + kChunkSize - 1) / kChunkSize);
    std::uint32_t c = kNoChunk;
    {
      const auto sl = lock_counted(span_mu_, kSpanContended);
      c = find_free_span(span);
      if (c != kNoChunk)
        for (std::uint32_t i = 0; i < span; ++i) chunk_free_[c + i] = false;
    }
    if (c == kNoChunk)
      throw AllocError(ErrKind::OutOfSpace, "out of contiguous heap space");
    // A chunk freed moments ago may still be held by its freeing lane for
    // the last transient update; waiting here holds no other lock.
    std::unique_lock<std::mutex> lk =
        lock_counted(chunk_mutex(c), kChunkContended);
    out.chunk = c;
    out.claimed_span = span;
    out.owner = std::move(lk);
    try {
      ChunkDesc d{static_cast<std::uint8_t>(ChunkState::HugeHead), 0, 0,
                  span};
      redo.stage(desc_off(c), desc_word(d));
    } catch (...) {
      cancel_alloc(out);
      throw;
    }
    block_off = chunk_off(c);
    out.total_size = std::uint64_t{span} * kChunkSize;
  }

  AllocHeader hdr{usable, type_num, kAllocLive};
  region_->memcpy_persist(region_->base() + block_off, &hdr, sizeof(hdr));
  out.data_off = block_off + sizeof(AllocHeader);
  if (zero)
    region_->memset_persist(region_->base() + out.data_off, 0, usable);
  return out;
}

void Heap::hint_partial(std::uint8_t class_idx, std::uint32_t chunk) {
  // The chunk lock (held by the caller) guards the flag, so a listed run —
  // the steady state — is re-hinted without the class lock.
  bool& listed = chunk_slot(chunk).on_partial;
  if (listed) return;
  const auto cl = lock_counted(class_mu_[class_idx], kClassContended);
  partial_runs_[class_idx].push_back(chunk);
  listed = true;
}

void Heap::finish_alloc(PreparedAlloc& a) {
  const std::uint32_t c = a.chunk;
  const ChunkDesc& d = *chunk_desc(c);
  if (static_cast<ChunkState>(d.state) == ChunkState::Run)
    hint_partial(d.class_idx, c);
  // Huge spans (and fresh-run chunks) were claimed in chunk_free_ at stage
  // time; the committed descriptor now reserves them.
  const auto* hdr = reinterpret_cast<const AllocHeader*>(
      region_->base() + a.data_off - sizeof(AllocHeader));
  count(kLive, static_cast<std::int64_t>(hdr->size + sizeof(AllocHeader)));
  if (a.claimed_span > 0)
    count(kReserved, static_cast<std::int64_t>(
                         std::uint64_t{a.claimed_span} * kChunkSize));
  if (a.owner.owns_lock()) a.owner.unlock();
}

void Heap::cancel_alloc(PreparedAlloc& a) {
  if (a.owner.owns_lock()) a.owner.unlock();
  if (a.claimed_span > 0) unclaim_span(a.chunk, a.claimed_span);
  a.claimed_span = 0;
  a.data_off = 0;
}

PreparedFree Heap::stage_free(RedoSession& redo, std::uint64_t data_off,
                              bool tolerate_dead) {
  PreparedFree out;
  const std::uint64_t block_off = data_off - sizeof(AllocHeader);
  const std::uint32_t c =
      data_off < sizeof(AllocHeader) ? kNoChunk : chunk_of(block_off);
  if (c == kNoChunk) {
    if (tolerate_dead) return out;
    throw AllocError(ErrKind::InvalidFree, "free of non-live object");
  }
  std::unique_lock<std::mutex> lk =
      lock_counted(chunk_mutex(c), kChunkContended);
  // Liveness must be judged under the chunk lock: a concurrent operation on
  // the same chunk may be mid-commit.
  if (!is_live(data_off)) {
    if (tolerate_dead) return out;
    throw AllocError(ErrKind::InvalidFree, "free of non-live object");
  }
  const ChunkDesc& d = *chunk_desc(c);
  const auto* hdr =
      reinterpret_cast<const AllocHeader*>(region_->base() + block_off);

  // Clear the live flag in the same atomic step.
  redo.stage(block_off + 8, alloc_word(hdr->type_num, 0));

  if (static_cast<ChunkState>(d.state) == ChunkState::Run) {
    const RunHeader* rh = run_header(c);
    const std::uint32_t block = kSizeClasses[d.class_idx];
    const std::uint64_t rel = block_off - chunk_off(c) - kRunHeaderSize;
    const auto idx = static_cast<std::uint32_t>(rel / block);
    redo.stage(chunk_off(c) + offsetof(RunHeader, bitmap) + (idx / 64) * 8,
               rh->bitmap[idx / 64] & ~(1ull << (idx % 64)));
  } else {
    ChunkDesc free_desc{static_cast<std::uint8_t>(ChunkState::Free), 0, 0, 0};
    redo.stage(desc_off(c), desc_word(free_desc));
  }
  count(kFreeOps);
  out.data_off = data_off;
  out.chunk = c;
  out.staged = true;
  out.owner = std::move(lk);
  return out;
}

void Heap::finish_free(PreparedFree& f) {
  const std::uint32_t c = f.chunk;
  const ChunkDesc& d = *chunk_desc(c);
  // The free cleared only the live flag: the header still holds the size.
  const auto* hdr = reinterpret_cast<const AllocHeader*>(
      region_->base() + f.data_off - sizeof(AllocHeader));
  const std::uint64_t total = hdr->size + sizeof(AllocHeader);
  count(kLive, -static_cast<std::int64_t>(total));
  if (static_cast<ChunkState>(d.state) == ChunkState::Run) {
    hint_partial(d.class_idx, c);
    // The freed block is the hottest free block this thread knows of.
    current_run(d.class_idx) = c;
  } else {
    // The span's head descriptor became Free; covered chunks follow suit
    // transiently.  Recompute the span from the allocation header.
    const auto span =
        static_cast<std::uint32_t>((total + kChunkSize - 1) / kChunkSize);
    count(kReserved,
          -static_cast<std::int64_t>(std::uint64_t{span} * kChunkSize));
    unclaim_span(c, span);
  }
  if (f.owner.owns_lock()) f.owner.unlock();
}

bool Heap::is_live_synced(std::uint64_t data_off) const {
  if (data_off < sizeof(AllocHeader)) return false;
  const std::uint32_t c = chunk_of(data_off - sizeof(AllocHeader));
  if (c == kNoChunk) return false;
  const auto lock = lock_counted(chunk_mutex(c), kChunkContended);
  return is_live(data_off);
}

bool Heap::is_live(std::uint64_t data_off) const {
  if (data_off < sizeof(AllocHeader)) return false;
  const std::uint64_t block_off = data_off - sizeof(AllocHeader);
  const std::uint32_t c = chunk_of(block_off);
  if (c == kNoChunk) return false;
  const ChunkDesc& d = *chunk_desc(c);
  const std::uint64_t chunk_start = chunk_off(c);
  switch (static_cast<ChunkState>(d.state)) {
    case ChunkState::Run: {
      if (d.class_idx >= kSizeClasses.size()) return false;
      const std::uint32_t block = kSizeClasses[d.class_idx];
      if (block_off < chunk_start + kRunHeaderSize) return false;
      const std::uint64_t rel = block_off - chunk_start - kRunHeaderSize;
      if (rel % block != 0) return false;
      const auto idx = static_cast<std::uint32_t>(rel / block);
      const RunHeader* rh = run_header(c);
      if (idx >= rh->block_count) return false;
      if ((rh->bitmap[idx / 64] & (1ull << (idx % 64))) == 0) return false;
      break;
    }
    case ChunkState::HugeHead: {
      if (block_off != chunk_start) return false;
      break;
    }
    default:
      return false;
  }
  const auto* hdr =
      reinterpret_cast<const AllocHeader*>(region_->base() + block_off);
  return (hdr->flags & kAllocLive) != 0;
}

const AllocHeader& Heap::header_of(std::uint64_t data_off) const {
  if (!is_live(data_off)) throw AllocError(ErrKind::InvalidFree, "not a live object");
  return *reinterpret_cast<const AllocHeader*>(region_->base() + data_off -
                                               sizeof(AllocHeader));
}

std::uint32_t Heap::type_of_synced(std::uint64_t data_off) const {
  if (data_off < sizeof(AllocHeader))
    throw AllocError(ErrKind::BadOid, "offset outside the heap");
  const std::uint32_t c = chunk_of(data_off - sizeof(AllocHeader));
  if (c == kNoChunk)
    throw AllocError(ErrKind::BadOid, "offset outside the heap");
  const auto lock = lock_counted(chunk_mutex(c), kChunkContended);
  return header_of(data_off).type_num;
}

std::uint64_t Heap::first_object(std::uint32_t type_num) const {
  return next_object(0, type_num);
}

std::uint64_t Heap::next_object(std::uint64_t data_off,
                                std::uint32_t type_num) const {
  const std::uint32_t total = chunk_count_.load(std::memory_order_acquire);
  std::uint32_t c = 0;
  while (c < total) {
    const ChunkDesc& d = *chunk_desc(c);
    const std::uint64_t chunk_start = chunk_off(c);
    switch (static_cast<ChunkState>(d.state)) {
      case ChunkState::Run: {
        const RunHeader* rh = run_header(c);
        const std::uint32_t block = kSizeClasses[d.class_idx];
        for (std::uint32_t i = 0; i < rh->block_count; ++i) {
          if ((rh->bitmap[i / 64] & (1ull << (i % 64))) == 0) continue;
          const std::uint64_t obj = chunk_start + kRunHeaderSize +
                                    std::uint64_t{i} * block +
                                    sizeof(AllocHeader);
          if (obj <= data_off) continue;
          const auto* hdr = reinterpret_cast<const AllocHeader*>(
              region_->base() + obj - sizeof(AllocHeader));
          if ((hdr->flags & kAllocLive) == 0) continue;
          if (type_num != ~0u && hdr->type_num != type_num) continue;
          return obj;
        }
        ++c;
        break;
      }
      case ChunkState::HugeHead: {
        const std::uint64_t obj = chunk_start + sizeof(AllocHeader);
        if (obj > data_off) {
          const auto* hdr = reinterpret_cast<const AllocHeader*>(
              region_->base() + chunk_start);
          if ((hdr->flags & kAllocLive) != 0 &&
              (type_num == ~0u || hdr->type_num == type_num))
            return obj;
        }
        c += d.span;
        break;
      }
      default:
        ++c;
        break;
    }
  }
  return 0;
}

HeapStats Heap::stats() const {
  HeapStats s;
  const std::uint32_t total = chunk_count_.load(std::memory_order_acquire);
  s.chunk_count = total;
  s.span_count = span_count_.load(std::memory_order_acquire);
  s.total_bytes = std::uint64_t{total} * kChunkSize;
  std::uint32_t c = 0;
  // Per-chunk locking: chunk metadata (descriptor, run bitmap) is only
  // mutated under that chunk's lock, so the walk reads each head chunk
  // consistently — stats() is safe to call from a monitoring thread while
  // lanes allocate.  The aggregate is still a moving snapshot, of course.
  while (c < total) {
    const std::lock_guard<std::mutex> lock(chunk_mutex(c));
    const ChunkDesc& d = *chunk_desc(c);
    switch (static_cast<ChunkState>(d.state)) {
      case ChunkState::Free:
        ++s.free_chunks;
        ++c;
        break;
      case ChunkState::Run: {
        std::uint32_t blocks = 0;
        s.live_bytes += run_live_bytes(c, &blocks);
        s.object_count += blocks;
        s.allocated_bytes += std::uint64_t{blocks} * kSizeClasses[d.class_idx];
        ++c;
        break;
      }
      case ChunkState::HugeHead: {
        ++s.object_count;
        s.allocated_bytes += std::uint64_t{d.span} * kChunkSize;
        const auto* hdr =
            reinterpret_cast<const AllocHeader*>(chunk_data(c));
        s.live_bytes += hdr->size + sizeof(AllocHeader);
        c += std::max<std::uint32_t>(d.span, 1);
        break;
      }
      default:
        ++c;
        break;
    }
  }
  s.reserved_bytes = (s.chunk_count - s.free_chunks) * kChunkSize;
  s.fragmentation = fragmentation_of(s.live_bytes, s.reserved_bytes);
  s.alloc_ops = static_cast<std::uint64_t>(sum(kAllocOps));
  s.free_ops = static_cast<std::uint64_t>(sum(kFreeOps));
  s.run_lock_skips = static_cast<std::uint64_t>(sum(kRunLockSkips));
  s.run_lock_waits = static_cast<std::uint64_t>(sum(kRunLockWaits));
  s.contended = contention();
  return s;
}

HeapContention Heap::contention() const noexcept {
  HeapContention c;
  c.class_lock = static_cast<std::uint64_t>(sum(kClassContended));
  c.chunk_lock = static_cast<std::uint64_t>(sum(kChunkContended));
  c.span_lock = static_cast<std::uint64_t>(sum(kSpanContended));
  return c;
}

HeapOccupancy Heap::occupancy() const noexcept {
  // Summed shard by shard while lanes may be mid-update, so a transient sum
  // can dip below zero; at quiescence it is exact.
  HeapOccupancy o;
  o.live_bytes =
      static_cast<std::uint64_t>(std::max<std::int64_t>(sum(kLive), 0));
  o.reserved_bytes =
      static_cast<std::uint64_t>(std::max<std::int64_t>(sum(kReserved), 0));
  o.fragmentation = fragmentation_of(o.live_bytes, o.reserved_bytes);
  return o;
}

void Heap::count(Counter which, std::int64_t delta) const noexcept {
  counters_[thread_number() % kCounterShards].v[which].fetch_add(
      delta, std::memory_order_relaxed);
}

std::int64_t Heap::sum(Counter which) const noexcept {
  std::int64_t total = 0;
  for (const CounterShard& shard : counters_)
    total += shard.v[which].load(std::memory_order_relaxed);
  return total;
}

void Heap::reset_occupancy(std::uint64_t live,
                           std::uint64_t reserved) noexcept {
  for (CounterShard& shard : counters_) {
    shard.v[kLive].store(0, std::memory_order_relaxed);
    shard.v[kReserved].store(0, std::memory_order_relaxed);
  }
  counters_[0].v[kLive].store(static_cast<std::int64_t>(live),
                              std::memory_order_relaxed);
  counters_[0].v[kReserved].store(static_cast<std::int64_t>(reserved),
                                  std::memory_order_relaxed);
}

std::unique_lock<std::mutex> Heap::lock_counted(std::mutex& mu,
                                                Counter which) const {
  std::unique_lock<std::mutex> lk(mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    count(which);
    lk.lock();
  }
  return lk;
}

std::uint64_t Heap::run_live_bytes(std::uint32_t chunk,
                                   std::uint32_t* blocks) const {
  const RunHeader* rh = run_header(chunk);
  const std::uint32_t block = kSizeClasses[chunk_desc(chunk)->class_idx];
  std::uint64_t live = 0;
  for (std::uint32_t i = 0; i < rh->block_count; ++i) {
    if ((rh->bitmap[i / 64] & (1ull << (i % 64))) == 0) continue;
    if (blocks != nullptr) ++*blocks;
    const auto* hdr = reinterpret_cast<const AllocHeader*>(
        chunk_data(chunk) + kRunHeaderSize + std::uint64_t{i} * block);
    live += hdr->size + sizeof(AllocHeader);
  }
  return live;
}

std::uint32_t Heap::chunk_index_of(std::uint64_t data_off) const noexcept {
  if (data_off < sizeof(AllocHeader)) return kNoChunk;
  return chunk_of(data_off - sizeof(AllocHeader));
}

std::uint64_t Heap::chunk_fill_of(std::uint64_t data_off) const {
  const std::uint32_t c = chunk_index_of(data_off);
  if (c == kNoChunk) return 0;
  const std::lock_guard<std::mutex> lock(chunk_mutex(c));
  const ChunkDesc& d = *chunk_desc(c);
  switch (static_cast<ChunkState>(d.state)) {
    case ChunkState::Run: {
      const RunHeader* rh = run_header(c);
      std::uint32_t used = 0;
      for (const std::uint64_t w : rh->bitmap)
        used += static_cast<std::uint32_t>(std::popcount(w));
      return std::uint64_t{used} * kSizeClasses[d.class_idx];
    }
    case ChunkState::HugeHead:
      return std::uint64_t{d.span} * kChunkSize;
    default:
      return 0;
  }
}

}  // namespace cxlpmem::pmemkit

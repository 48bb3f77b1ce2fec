#include "pmemkit/pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <shared_mutex>
#include <utility>

#include "pmemkit/checksum.hpp"
#include "pmemkit/crash_hook.hpp"
#include "pmemkit/evolve.hpp"
#include "pmemkit/redo.hpp"

namespace cxlpmem::pmemkit {

// Shared with the evolution seals (evolve.cpp), which must stage the
// successor checksum in the same redo commit that rewrites version or
// pool_size.  Contract documented at the declaration (evolve.hpp).
std::uint64_t header_checksum(const PoolHeader& h) {
  PoolHeader probe = h;
  probe.flags = 0;
  probe.root_off = 0;
  probe.root_size = 0;
  probe.checksum = 0;
  return fletcher64(&probe, sizeof(probe));
}

namespace {

std::uint64_t random_pool_id() {
  static std::mt19937_64 rng{std::random_device{}()};
  std::uint64_t id = 0;
  while (id == 0) id = rng();
  return id;
}

/// CXLPMEM_PMEMCHECK=1 turns the sanitizer on for every pool in the
/// process, regardless of PoolOptions — how the CI pmemcheck job runs the
/// whole suite under PmemSan without touching each test.
[[nodiscard]] bool env_pmemcheck() noexcept {
  const char* v = std::getenv("CXLPMEM_PMEMCHECK");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Per-thread open transactions, keyed by pool (a thread may use several
/// pools, but at most one open transaction per pool).
thread_local std::vector<std::pair<const ObjectPool*, Transaction*>>
    t_current_tx;

/// Per-thread pinned lanes (LaneSession), keyed by pool.  Checked by
/// acquire_tx_lane before the free-lane mask: a thread holding a session
/// runs every transaction on its pinned lane for free.
thread_local std::vector<std::pair<const ObjectPool*, std::uint32_t>>
    t_lane_sessions;

[[nodiscard]] const std::uint32_t* session_lane_of(
    const ObjectPool* pool) noexcept {
  for (const auto& [p, lane] : t_lane_sessions)
    if (p == pool) return &lane;
  return nullptr;
}

/// The calling thread's last checked-out lane.  A checkout takes it again
/// while it is free, so a thread keeps writing the same lane's log lines;
/// a fresh thread starts at 0 and so gets the lowest free lane.
thread_local std::uint32_t t_lane_hint = 0;

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// Process-wide registry of open pools, in open order.  Registration only
/// happens on pool open/close; every mutation bumps g_pools_gen so the
/// thread-local lookup caches below know their entries went stale.  The
/// locked scan is only the cache-miss slow path.
std::shared_mutex g_pools_mu;
std::vector<ObjectPool*> g_pools;
std::atomic<std::uint64_t> g_pools_gen{1};

void register_pool(ObjectPool* pool) {
  const std::unique_lock lock(g_pools_mu);
  g_pools.push_back(pool);
  g_pools_gen.fetch_add(1, std::memory_order_release);
}

void unregister_pool(ObjectPool* pool) {
  const std::unique_lock lock(g_pools_mu);
  std::erase(g_pools, pool);
  g_pools_gen.fetch_add(1, std::memory_order_release);
}

/// Thread-local registry lookup cache.  Entries are valid only while
/// `gen` matches g_pools_gen — any pool open/close resets the whole cache,
/// so a hit can never return a closed pool or shadow a newer same-id one
/// ("most recently opened wins" re-resolves through the slow path).  Only
/// positive results are cached; a nullptr answer is the throw-side path of
/// every caller and stays on the locked scan.
constexpr std::size_t kLookupCacheSlots = 4;

struct LookupCache {
  std::uint64_t gen = 0;
  struct ById {
    std::uint64_t pool_id = 0;
    ObjectPool* pool = nullptr;
  };
  struct ByAddr {
    const std::byte* base = nullptr;
    std::size_t size = 0;
    ObjectPool* pool = nullptr;
  };
  std::array<ById, kLookupCacheSlots> by_id{};
  std::array<ByAddr, kLookupCacheSlots> by_addr{};
  std::size_t id_clock = 0;
  std::size_t addr_clock = 0;

  /// Revalidates against the registry generation; stale => emptied.
  void refresh() noexcept {
    const std::uint64_t now = g_pools_gen.load(std::memory_order_acquire);
    if (gen != now) {
      *this = LookupCache{};
      gen = now;
    }
  }
};

thread_local LookupCache t_lookup_cache;

}  // namespace

std::uint64_t pool_registry_generation() noexcept {
  return g_pools_gen.load(std::memory_order_acquire);
}

void detail::bump_pool_generation() noexcept {
  g_pools_gen.fetch_add(1, std::memory_order_release);
}

ObjectPool* pool_by_id(std::uint64_t pool_id) noexcept {
  LookupCache& cache = t_lookup_cache;
  cache.refresh();
  for (const auto& e : cache.by_id)
    if (e.pool != nullptr && e.pool_id == pool_id) return e.pool;

  ObjectPool* found = nullptr;
  {
    const std::shared_lock lock(g_pools_mu);
    for (auto it = g_pools.rbegin(); it != g_pools.rend(); ++it)
      if ((*it)->pool_id() == pool_id) {
        found = *it;
        break;
      }
  }
  if (found != nullptr)
    cache.by_id[cache.id_clock++ % kLookupCacheSlots] = {pool_id, found};
  return found;
}

ObjectPool* pool_containing(const void* p) noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  LookupCache& cache = t_lookup_cache;
  cache.refresh();
  for (const auto& e : cache.by_addr)
    if (e.pool != nullptr && b >= e.base && b < e.base + e.size)
      return e.pool;

  ObjectPool* found = nullptr;
  const std::byte* base = nullptr;
  std::size_t size = 0;
  {
    const std::shared_lock lock(g_pools_mu);
    for (auto it = g_pools.rbegin(); it != g_pools.rend(); ++it) {
      PersistentRegion& region = (*it)->region();
      if (b >= region.base() && b < region.base() + region.size()) {
        found = *it;
        base = region.base();
        size = region.size();
        break;
      }
    }
  }
  if (found != nullptr)
    cache.by_addr[cache.addr_clock++ % kLookupCacheSlots] = {base, size,
                                                             found};
  return found;
}

ObjectPool* tx_pool_containing(const void* p) noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  for (const auto& [pool, tx] : t_current_tx) {
    PersistentRegion& region = const_cast<ObjectPool*>(pool)->region();
    if (b >= region.base() && b < region.base() + region.size())
      return const_cast<ObjectPool*>(pool);
  }
  return nullptr;
}

bool thread_in_tx() noexcept { return !t_current_tx.empty(); }

ObjectPool::ObjectPool(MappedFile file, Options options)
    : region_(std::move(file), options.track_shadow,
              options.pmemcheck || env_pmemcheck()),
      path_(region_.file().path()),
      tx_publish_(options.tx_publish) {
  if (PmemSan* san = region_.pmemsan())
    san->set_meta_bound(kHeaderSize + kLaneCount * kLaneSize);
}

ObjectPool::OpLane::OpLane(ObjectPool& pool) : pool_(pool) {
  if (Transaction* tx = pool.current_tx(); tx != nullptr) {
    lane_ = tx->lane_;
    owned_ = false;
  } else {
    lane_ = pool.acquire_tx_lane();
    owned_ = true;
  }
}

ObjectPool::OpLane::~OpLane() {
  if (owned_) pool_.release_tx_lane(lane_);
}

std::unique_ptr<ObjectPool> ObjectPool::create(
    const std::filesystem::path& path, std::string_view layout,
    std::uint64_t size, Options options) {
  FileResource resource(path);
  return create(resource, layout, size, options);
}

std::unique_ptr<ObjectPool> ObjectPool::open(
    const std::filesystem::path& path, std::string_view layout,
    Options options) {
  FileResource resource(path);
  return open(resource, layout, options);
}

std::unique_ptr<ObjectPool> ObjectPool::create(PmemResource& resource,
                                               std::string_view layout,
                                               std::uint64_t size,
                                               Options options) {
  if (layout.size() >= kLayoutNameMax)
    throw PoolError(ErrKind::LayoutTooLong, "layout name too long");
  if (size < min_pool_size())
    throw PoolError(ErrKind::PoolTooSmall,
                    "pool size below minimum (" +
                        std::to_string(min_pool_size()) + " bytes)");

  auto pool = std::unique_ptr<ObjectPool>(
      new ObjectPool(resource.map_create(size), options));

  PoolHeader& h = pool->header();
  h.magic = kPoolMagic;
  h.version = kPoolVersion;
  h.flags = 0;  // open (dirty) until clean shutdown
  h.layout.fill('\0');
  // pmemlint: allow(header formatting precedes the first persist below)
  std::memcpy(h.layout.data(), layout.data(), layout.size());
  h.pool_id = random_pool_id();
  h.pool_size = size;
  h.lane_off = kHeaderSize;
  h.lane_count = kLaneCount;
  h.lane_size = kLaneSize;
  h.heap_off = kHeaderSize + kLaneCount * kLaneSize;
  h.heap_size = size - h.heap_off;
  h.root_off = 0;
  h.root_size = 0;
  h.checksum = header_checksum(h);
  pool->region_.note_store_infra(&h, sizeof(h));
  pool->persist(&h, sizeof(h));

  // Lanes are zero (Idle) in a fresh file; only the heap needs formatting.
  pool->heap_ = std::make_unique<Heap>(pool->region_, h.heap_off, h.heap_size);
  pool->heap_->format();
  register_pool(pool.get());
  return pool;
}

std::unique_ptr<ObjectPool> ObjectPool::open(PmemResource& resource,
                                             std::string_view layout,
                                             Options options) {
  auto pool = std::unique_ptr<ObjectPool>(
      new ObjectPool(resource.map_open(), options));

  // Guard every header read behind the mapped length: a truncated file must
  // produce a typed error, not a fault on the first field access.
  if (pool->size() < sizeof(PoolHeader))
    throw PoolError(ErrKind::CorruptImage,
                    "pool file too short for its header: " +
                        resource.describe());
  if (pool->header().magic != kPoolMagic)
    throw PoolError(ErrKind::NotAPool,
                    "not a pmemkit pool: " + resource.describe());

  // An interrupted migration/resize must be handled before the checks
  // below: its sealing commit may be published-but-unapplied, and a Resize
  // marker legitimately leaves the file a different length than the header.
  // A simulated power cut inside this window (the migration crash sweep)
  // unwinds through the pool's destructor — mark the handle crashed first
  // so the teardown does not stamp a clean shutdown onto the "dead" image.
  bool evolved = false;
  try {
    evolved = recover_evolution(*pool, options.migrate);

    if (pool->header().version == kPoolVersionV1) {
      if (!options.migrate)
        throw PoolError(ErrKind::VersionMismatch,
                        "pool is layout version 1; open with "
                        "PoolOptions::migrate to upgrade it");
      migrate_v1_pool(*pool, layout);
      evolved = true;  // survives run_recovery() overwriting recovered_
    }
  } catch (const CrashInjected&) {
    pool->mark_crashed();
    throw;
  }

  const PoolHeader& h = pool->header();
  if (h.version != kPoolVersion)
    throw PoolError(ErrKind::VersionMismatch, "pool version mismatch");
  if (h.checksum != header_checksum(h))
    throw PoolError(ErrKind::ChecksumMismatch,
                    "pool header checksum mismatch");
  if (h.pool_size != pool->size())
    throw PoolError(ErrKind::SizeMismatch, "pool size mismatch");
  if (std::string_view(h.layout.data()) != layout)
    throw PoolError(ErrKind::LayoutMismatch,
                    "layout mismatch: pool has '" +
                        std::string(h.layout.data()) + "', caller wants '" +
                        std::string(layout) + "'");

  pool->heap_ = std::make_unique<Heap>(pool->region_, h.heap_off, h.heap_size);

  // Span table: count == 0 is the implicit single span every pre-table
  // image carries; a non-zero table must self-validate and agree with the
  // header about the base span.
  const auto& table = *reinterpret_cast<const SpanTable*>(
      pool->region_.base() + kSpanTableOff);
  if (table.count != 0) {
    if (table.count > kMaxHeapSpans ||
        table.checksum != span_table_checksum(table))
      throw PoolError(ErrKind::CorruptImage, "span table checksum mismatch");
    if (table.spans[0].off != h.heap_off || table.spans[0].size != h.heap_size)
      throw PoolError(ErrKind::CorruptImage,
                      "span table disagrees with the header's base span");
    for (std::uint64_t i = 1; i < table.count; ++i)
      pool->heap_->adopt_span(table.spans[i].off, table.spans[i].size);
  }
  pool->run_recovery();
  pool->recovered_ = pool->recovered_ || evolved;
  register_pool(pool.get());
  return pool;
}

ObjectPool::~ObjectPool() {
  unregister_pool(this);
  if (crashed_) return;  // crash simulation: leave the image as-is
  // Closing with stored-but-not-durable lines outstanding is R5; the
  // destructor is noexcept, so a throwing sink cannot unwind from here —
  // a violation this late is a hard stop.
  if (PmemSan* san = region_.pmemsan()) {
    try {
      san->close_check();
    } catch (const PoolError& e) {
      std::fprintf(stderr, "pmemsan: violation at pool close: %s\n", e.what());
      std::abort();
    }
  }
  PoolHeader& h = header();
  h.flags |= kFlagCleanShutdown;
  region_.note_store_infra(&h.flags, sizeof(h.flags));
  persist(&h.flags, sizeof(h.flags));
  region_.file().sync();
}

void ObjectPool::run_recovery() {
  PoolHeader& h = header();
  const bool dirty = (h.flags & kFlagCleanShutdown) == 0;
  recovered_ = recover_lanes() || dirty;
  // Mark open (dirty) for the lifetime of this handle.
  h.flags &= ~kFlagCleanShutdown;
  region_.note_store_infra(&h.flags, sizeof(h.flags));
  persist(&h.flags, sizeof(h.flags));
}

bool ObjectPool::recover_lanes() {
  // Redo first.  A log published but never applied (power cut inside an
  // atomic alloc/free) still has chunk descriptors and bitmaps to write;
  // the heap's transient state — free-chunk map, partial-run hints,
  // occupancy counters — must be built from the image after that replay,
  // or a replayed allocation's chunk stays marked free and is handed out
  // again.  Undo-level rollback and deferred frees then go through the
  // heap's finish_* bookkeeping like any other free.
  const std::uint32_t lanes = header().lane_count;
  bool any = false;
  for (std::uint32_t l = 0; l < lanes; ++l)
    any = redo_recover(region_, lane_header(l).redo) || any;
  heap_->rebuild();
  for (std::uint32_t l = 0; l < lanes; ++l)
    any = recover_lane(*this, l) || any;
  return any;
}

std::uint64_t ObjectPool::pool_id() const noexcept {
  return header().pool_id;
}

std::string ObjectPool::layout() const {
  return std::string(header().layout.data());
}

void* ObjectPool::direct(ObjId oid) {
  if (oid.is_null()) throw PoolError(ErrKind::BadOid, "direct() on null oid");
  if (oid.pool_id != pool_id()) throw PoolError(ErrKind::BadOid, "oid from another pool");
  if (oid.off >= size()) throw PoolError(ErrKind::BadOid, "oid offset out of range");
  return region_.base() + oid.off;
}

const void* ObjectPool::direct(ObjId oid) const {
  return const_cast<ObjectPool*>(this)->direct(oid);
}

void* ObjectPool::direct_checked(ObjId oid, std::uint32_t expected_type) {
  void* p = direct(oid);
  const std::uint32_t actual = heap_->type_of_synced(oid.off);
  if (actual != expected_type)
    throw PoolError(ErrKind::TypeMismatch,
                    "object at offset " + std::to_string(oid.off) +
                        " has type number " + std::to_string(actual) +
                        ", caller expected " + std::to_string(expected_type));
  return p;
}

ObjId ObjectPool::oid_for(const void* p) const {
  const auto* b = static_cast<const std::byte*>(p);
  if (b < region_.base() || b >= region_.base() + size())
    throw PoolError(ErrKind::BadOid, "pointer not inside pool");
  return ObjId{pool_id(),
               static_cast<std::uint64_t>(b - region_.base())};
}

LaneHeader& ObjectPool::lane_header(std::uint32_t lane) noexcept {
  return *reinterpret_cast<LaneHeader*>(region_.base() + lane_off(lane));
}

std::byte* ObjectPool::lane_undo(std::uint32_t lane) noexcept {
  return region_.base() + lane_off(lane) + sizeof(LaneHeader);
}

std::uint64_t ObjectPool::lane_off(std::uint32_t lane) const noexcept {
  return header().lane_off + std::uint64_t{lane} * header().lane_size;
}

ObjId ObjectPool::alloc_atomic(std::uint64_t size, std::uint32_t type_num,
                               ObjId* dest, bool zero) {
  const OpLane lane(*this);
  RedoSession session(region_, lane_header(lane.lane()).redo);
  PreparedAlloc pa = heap_->stage_alloc(session, size, type_num, zero);
  const ObjId id{pool_id(), pa.data_off};

  const auto* dp = reinterpret_cast<const std::byte*>(dest);
  const bool dest_in_pool =
      dest != nullptr && dp >= region_.base() && dp < region_.base() + this->size();
  try {
    if (dest_in_pool)
      session.stage_oid(region_.offset_of(dest), id);
    session.commit();
  } catch (const CrashInjected&) {
    throw;  // power cut: the staged state is the crash image under test
  } catch (...) {
    heap_->cancel_alloc(pa);
    throw;
  }
  heap_->finish_alloc(pa);
  if (dest != nullptr && !dest_in_pool) *dest = id;
  return id;
}

void ObjectPool::free_atomic(ObjId* dest) {
  if (dest == nullptr) throw AllocError(ErrKind::InvalidFree, "free_atomic(nullptr)");
  const ObjId oid = *dest;
  if (oid.is_null()) return;
  if (oid.pool_id != pool_id()) throw AllocError(ErrKind::BadOid, "oid from another pool");

  const OpLane lane(*this);
  RedoSession session(region_, lane_header(lane.lane()).redo);
  PreparedFree pf = heap_->stage_free(session, oid.off);
  if (!pf.staged) return;
  const auto* dp = reinterpret_cast<const std::byte*>(dest);
  const bool dest_in_pool =
      dp >= region_.base() && dp < region_.base() + size();
  if (dest_in_pool) session.stage_oid(region_.offset_of(dest), kNullOid);
  session.commit();
  heap_->finish_free(pf);
  if (!dest_in_pool) *dest = kNullOid;
}

void ObjectPool::free_atomic(ObjId oid) {
  if (oid.is_null()) return;
  if (oid.pool_id != pool_id()) throw AllocError(ErrKind::BadOid, "oid from another pool");
  const OpLane lane(*this);
  RedoSession session(region_, lane_header(lane.lane()).redo);
  PreparedFree pf = heap_->stage_free(session, oid.off);
  if (!pf.staged) return;
  session.commit();
  heap_->finish_free(pf);
}

std::uint64_t ObjectPool::usable_size(ObjId oid) const {
  if (oid.pool_id != pool_id()) throw AllocError(ErrKind::BadOid, "oid from another pool");
  return heap_->usable_size(oid.off);
}

std::uint32_t ObjectPool::type_of(ObjId oid) const {
  if (oid.pool_id != pool_id()) throw AllocError(ErrKind::BadOid, "oid from another pool");
  return heap_->header_of(oid.off).type_num;
}

ObjId ObjectPool::first(std::uint32_t type_num) const {
  const std::uint64_t off = heap_->first_object(type_num);
  return off == 0 ? kNullOid : ObjId{pool_id(), off};
}

ObjId ObjectPool::next(ObjId oid, std::uint32_t type_num) const {
  if (oid.pool_id != pool_id()) throw AllocError(ErrKind::BadOid, "oid from another pool");
  const std::uint64_t off = heap_->next_object(oid.off, type_num);
  return off == 0 ? kNullOid : ObjId{pool_id(), off};
}

ObjId ObjectPool::root_raw(std::uint64_t size, std::uint32_t type_num) {
  PoolHeader& h = header();
  // root_off is published via a redo apply; reading it under root_mu_ keeps
  // the check ordered against a concurrent first-use allocation.
  const std::lock_guard<std::mutex> lock(root_mu_);
  if (h.root_off != 0) {
    if (size > h.root_size)
      throw PoolError(ErrKind::BadAlloc, "root object smaller than requested size");
    if (type_num != 0) {
      const std::uint32_t actual = heap_->type_of_synced(h.root_off);
      if (actual != type_num)
        throw PoolError(ErrKind::TypeMismatch,
                        "root object has type number " +
                            std::to_string(actual) + ", caller expected " +
                            std::to_string(type_num));
    }
    return ObjId{pool_id(), h.root_off};
  }

  const OpLane lane(*this);
  RedoSession session(region_, lane_header(lane.lane()).redo);
  PreparedAlloc pa = heap_->stage_alloc(session, size, type_num, /*zero=*/true);
  try {
    // Root oid + size publish atomically with the allocation.
    session.stage(region_.offset_of(&h.root_off), pa.data_off);
    session.stage(region_.offset_of(&h.root_size), size);
    session.commit();
  } catch (const CrashInjected&) {
    throw;  // power cut: no cleanup may happen
  } catch (...) {
    heap_->cancel_alloc(pa);
    throw;
  }
  heap_->finish_alloc(pa);
  return ObjId{pool_id(), pa.data_off};
}

Transaction* ObjectPool::current_tx() const {
  for (const auto& [pool, tx] : t_current_tx)
    if (pool == this) return tx;
  return nullptr;
}

std::uint32_t ObjectPool::current_tx_lane() const {
  const Transaction* tx = current_tx();
  return tx == nullptr ? static_cast<std::uint32_t>(kLaneCount) : tx->lane_;
}

void ObjectPool::set_current_tx(Transaction* tx) {
  if (tx == nullptr) {
    std::erase_if(t_current_tx,
                  [this](const auto& e) { return e.first == this; });
  } else {
    t_current_tx.emplace_back(this, tx);
  }
}

std::uint32_t ObjectPool::acquire_tx_lane() {
  if (const std::uint32_t* pinned = session_lane_of(this))
    return *pinned;  // the thread's LaneSession owns this lane
  return acquire_lane_raw();
}

void ObjectPool::release_tx_lane(std::uint32_t lane) {
  if (const std::uint32_t* pinned = session_lane_of(this);
      pinned != nullptr && *pinned == lane)
    return;  // stays checked out until the LaneSession ends
  return_lanes(std::uint64_t{1} << lane);
}

bool ObjectPool::try_take_lane(std::uint32_t& lane) noexcept {
  // seq_cst throughout: a sleeper's re-check must not be ordered before its
  // lane_sleepers_ increment (see return_lanes).  The thread's own lane is
  // taken with one fetch_and, not a load and a CAS: each is a transfer of
  // the mask's line, which every checkout on the pool writes.  Clearing a
  // bit that is already clear changes nothing.
  const std::uint64_t hint = std::uint64_t{1} << t_lane_hint;
  std::uint64_t free = free_lanes_.fetch_and(~hint);
  if ((free & hint) != 0) {
    lane = t_lane_hint;
    return true;
  }
  while (free != 0) {
    const auto pick = static_cast<std::uint32_t>(std::countr_zero(free));
    if (free_lanes_.compare_exchange_weak(free,
                                          free & ~(std::uint64_t{1} << pick))) {
      t_lane_hint = pick;
      lane = pick;
      return true;
    }
  }
  return false;
}

std::uint32_t ObjectPool::acquire_lane_raw() {
  std::uint32_t lane = 0;
  if (try_take_lane(lane)) return lane;
  lane_waits_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(lane_mu_);
  lane_sleepers_.fetch_add(1);
  lane_cv_.wait(lock, [&] { return try_take_lane(lane); });
  lane_sleepers_.fetch_sub(1);
  return lane;
}

void ObjectPool::return_lanes(std::uint64_t lanes) {
  // No lost wake-up: a sleeper registers in lane_sleepers_ before its
  // re-check of the mask, and a return sets its bits before it reads the
  // count, all seq_cst — so either the sleeper sees the bits or the return
  // sees the sleeper.  Taking the mutex then waits out a sleeper between
  // its failed re-check and its wait.  notify_all, because a Quiesce may
  // sleep among ordinary checkouts and must see every return.
  free_lanes_.fetch_or(lanes);
  if (lane_sleepers_.load() == 0) return;
  { const std::lock_guard<std::mutex> lock(lane_mu_); }
  lane_cv_.notify_all();
}

ObjectPool::LaneSession::LaneSession(ObjectPool& pool) : pool_(pool) {
  if (session_lane_of(&pool) != nullptr)
    throw TxError(ErrKind::TxMisuse,
                  "LaneSession: thread already holds a session on this pool");
  lane_ = pool.acquire_lane_raw();
  t_lane_sessions.emplace_back(&pool, lane_);
}

ObjectPool::LaneSession::~LaneSession() {
  std::erase_if(t_lane_sessions, [this](const auto& e) {
    return e.first == &pool_ && e.second == lane_;
  });
  pool_.return_lanes(std::uint64_t{1} << lane_);
}

ObjectPool::Quiesce::Quiesce(ObjectPool& pool) : pool_(pool) {
  // The calling thread holding a lane would deadlock the drain below (and,
  // while another quiesce gathers, the wait for quiesce_mu_).
  if (pool.current_tx() != nullptr || session_lane_of(&pool) != nullptr)
    throw TxError(ErrKind::TxMisuse,
                  "pool evolution requires the calling thread to hold no "
                  "transaction or LaneSession on the pool");
  one_at_a_time_ = std::unique_lock<std::mutex>(pool.quiesce_mu_);
  std::uint64_t held = pool.free_lanes_.exchange(0);
  if (held == kAllLanes) return;
  pool.lane_waits_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(pool.lane_mu_);
  pool.lane_sleepers_.fetch_add(1);
  pool.lane_cv_.wait(lock, [&] {
    held |= pool.free_lanes_.exchange(0);
    return held == kAllLanes;
  });
  pool.lane_sleepers_.fetch_sub(1);
}

ObjectPool::Quiesce::~Quiesce() { pool_.return_lanes(kAllLanes); }

PoolStats ObjectPool::stats() const {
  PoolStats s;
  s.heap = heap_->stats();
  s.pool_size = size();
  s.lane_count = header().lane_count;
  s.lane_waits = lane_waits_.load(std::memory_order_relaxed);
  s.layout_version = layout_version();
  s.resizes = resizes();
  s.recovered = recovered_;
  return s;
}

}  // namespace cxlpmem::pmemkit

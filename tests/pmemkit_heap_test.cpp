// Tests for the persistent heap: size classes, runs, huge spans, iteration,
// the O(1) occupancy counters against the walked census, and a randomized
// alloc/free property sweep with reopen-rebuild checks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pmemkit/evolve.hpp"
#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"
#include "worker_errors.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

/// The running counters must equal the walked census whenever no operation
/// is between stage and finish.
void expect_occupancy_matches_walk(const pk::ObjectPool& pool,
                                   const std::string& when) {
  const pk::HeapStats walked = pool.stats().heap;
  const pk::HeapOccupancy occ = pool.occupancy();
  EXPECT_EQ(occ.live_bytes, walked.live_bytes) << when;
  EXPECT_EQ(occ.reserved_bytes, walked.reserved_bytes) << when;
  EXPECT_DOUBLE_EQ(occ.fragmentation, walked.fragmentation) << when;
}

class HeapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("heaptest-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove(path_);
    pool_ = pk::ObjectPool::create(path_, "heap", 64ull << 20);
  }
  void TearDown() override {
    pool_.reset();
    fs::remove(path_);
  }

  fs::path path_;
  std::unique_ptr<pk::ObjectPool> pool_;
};

TEST_F(HeapTest, UsableSizeCoversRequest) {
  for (const std::uint64_t size :
       {1ull, 48ull, 100ull, 1000ull, 5000ull, 100000ull, 1000000ull}) {
    const pk::ObjId oid = pool_->alloc_atomic(size, 1);
    EXPECT_GE(pool_->usable_size(oid), size) << size;
  }
}

TEST_F(HeapTest, TypeNumbersAreRecorded) {
  const pk::ObjId a = pool_->alloc_atomic(64, 42);
  const pk::ObjId b = pool_->alloc_atomic(64, 7);
  EXPECT_EQ(pool_->type_of(a), 42u);
  EXPECT_EQ(pool_->type_of(b), 7u);
}

TEST_F(HeapTest, ZeroedAllocationIsZero) {
  const pk::ObjId oid = pool_->alloc_atomic(4096, 1, nullptr, /*zero=*/true);
  const auto* p = static_cast<const std::uint8_t*>(pool_->direct(oid));
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(p[i], 0) << i;
}

TEST_F(HeapTest, ZeroSizeAllocationThrows) {
  EXPECT_THROW((void)pool_->alloc_atomic(0, 1), pk::AllocError);
}

TEST_F(HeapTest, DoubleFreeThrows) {
  const pk::ObjId oid = pool_->alloc_atomic(64, 1);
  pool_->free_atomic(oid);
  EXPECT_THROW(pool_->free_atomic(oid), pk::AllocError);
}

TEST_F(HeapTest, FreeNullsDestinationAtomically) {
  struct R { pk::ObjId slot; };
  auto* r = pool_->direct(pool_->root<R>());
  (void)pool_->alloc_atomic(64, 1, &r->slot);
  EXPECT_FALSE(r->slot.is_null());
  pool_->free_atomic(&r->slot);
  EXPECT_TRUE(r->slot.is_null());
}

TEST_F(HeapTest, HugeAllocationsSpanChunks) {
  const std::uint64_t size = 3ull << 20;  // 3 MiB > chunk size
  const pk::ObjId oid = pool_->alloc_atomic(size, 2);
  EXPECT_GE(pool_->usable_size(oid), size);
  auto* p = static_cast<std::uint8_t*>(pool_->direct(oid));
  p[0] = 1;
  p[size - 1] = 2;  // touches the last spanned chunk
  pool_->persist(&p[0], 1);  // raw stores must be persisted by the caller
  pool_->persist(&p[size - 1], 1);
  pool_->free_atomic(oid);
  // The space is reusable afterwards.
  const pk::ObjId again = pool_->alloc_atomic(size, 2);
  EXPECT_FALSE(again.is_null());
}

TEST_F(HeapTest, OutOfSpaceThrows) {
  EXPECT_THROW((void)pool_->alloc_atomic(1ull << 40, 1), pk::AllocError);
  // Exhaust with large blocks.
  std::vector<pk::ObjId> held;
  try {
    for (;;) held.push_back(pool_->alloc_atomic(4ull << 20, 1));
  } catch (const pk::AllocError&) {
  }
  EXPECT_FALSE(held.empty());
  // Freeing restores allocatability.
  pool_->free_atomic(held.back());
  EXPECT_NO_THROW((void)pool_->alloc_atomic(4ull << 20, 1));
}

TEST_F(HeapTest, TypedIterationFindsAllObjects) {
  std::vector<pk::ObjId> red, blue;
  for (int i = 0; i < 10; ++i) red.push_back(pool_->alloc_atomic(100, 1));
  for (int i = 0; i < 5; ++i) blue.push_back(pool_->alloc_atomic(100, 2));

  int reds = 0;
  for (pk::ObjId o = pool_->first(1); !o.is_null(); o = pool_->next(o, 1))
    ++reds;
  EXPECT_EQ(reds, 10);

  int blues = 0;
  for (pk::ObjId o = pool_->first(2); !o.is_null(); o = pool_->next(o, 2))
    ++blues;
  EXPECT_EQ(blues, 5);

  int all = 0;
  for (pk::ObjId o = pool_->first(); !o.is_null(); o = pool_->next(o))
    ++all;
  EXPECT_GE(all, 15);  // root object may add one
}

TEST_F(HeapTest, IterationSkipsFreedObjects) {
  const pk::ObjId a = pool_->alloc_atomic(100, 5);
  const pk::ObjId b = pool_->alloc_atomic(100, 5);
  pool_->free_atomic(a);
  int count = 0;
  for (pk::ObjId o = pool_->first(5); !o.is_null(); o = pool_->next(o, 5)) {
    EXPECT_EQ(o, b);
    ++count;
  }
  EXPECT_EQ(count, 1);
}

// ---------------------------------------------------------------------------
// Occupancy counters: equal to the walked census after every kind of heap
// mutation, and seeded from the image on reopen.
// ---------------------------------------------------------------------------

TEST_F(HeapTest, OccupancyTracksRootSmallAndHugeAllocations) {
  constexpr std::uint64_t kHdr = sizeof(pk::AllocHeader);
  expect_occupancy_matches_walk(*pool_, "fresh pool");
  EXPECT_EQ(pool_->occupancy().reserved_bytes, 0u);
  EXPECT_EQ(pool_->occupancy().fragmentation, 0.0);

  struct R { pk::ObjId slot; };
  (void)pool_->root<R>();
  expect_occupancy_matches_walk(*pool_, "root");
  const pk::ObjId small = pool_->alloc_atomic(100, 1);
  expect_occupancy_matches_walk(*pool_, "small");
  const pk::ObjId huge = pool_->alloc_atomic(3ull << 20, 2);
  expect_occupancy_matches_walk(*pool_, "huge");

  // Exact values: the root and the small block share no run (different
  // classes), and 3 MiB plus its header spills into a 13th chunk.
  const pk::HeapOccupancy occ = pool_->occupancy();
  EXPECT_EQ(occ.live_bytes, (sizeof(R) + kHdr) + (100 + kHdr) +
                                ((3ull << 20) + kHdr));
  EXPECT_EQ(occ.reserved_bytes, (2 + 13) * pk::kChunkSize);

  pool_->free_atomic(small);
  expect_occupancy_matches_walk(*pool_, "small freed");
  pool_->free_atomic(huge);
  expect_occupancy_matches_walk(*pool_, "huge freed");
  EXPECT_EQ(pool_->occupancy().live_bytes, sizeof(R) + kHdr);
  // The emptied small run stays reserved for its class.
  EXPECT_EQ(pool_->occupancy().reserved_bytes, 2 * pk::kChunkSize);
}

TEST_F(HeapTest, OccupancyTracksTxFreeAndAbort) {
  struct R { pk::ObjId slot; };
  auto* r = pool_->direct(pool_->root<R>());
  pool_->run_tx([&] {
    pool_->tx_add_range(&r->slot, sizeof(r->slot));
    r->slot = pool_->tx_alloc(5000, 3);
  });
  expect_occupancy_matches_walk(*pool_, "tx_alloc");

  // An aborted transaction rolls its allocations back through the same
  // bookkeeping, huge span included.
  const std::uint64_t live_before = pool_->occupancy().live_bytes;
  EXPECT_THROW(pool_->run_tx([&] {
    (void)pool_->tx_alloc(300000, 3);
    (void)pool_->tx_alloc(64, 3);
    throw std::runtime_error("abort");
  }),
               std::runtime_error);
  expect_occupancy_matches_walk(*pool_, "aborted tx_alloc");
  EXPECT_EQ(pool_->occupancy().live_bytes, live_before);

  pool_->run_tx([&] {
    pool_->tx_free(r->slot);
    pool_->tx_add_range(&r->slot, sizeof(r->slot));
    r->slot = pk::kNullOid;
  });
  expect_occupancy_matches_walk(*pool_, "tx_free");
}

TEST_F(HeapTest, OccupancyTracksCompactionAndReclaim) {
  // Swiss cheese: 8000 B blocks (31 per run), three of every four freed.
  std::vector<pk::ObjId> slots;
  for (int i = 0; i < 128; ++i) slots.push_back(pool_->alloc_atomic(8000, 4));
  std::vector<pk::ObjId*> refs;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i % 4 == 3) {
      refs.push_back(&slots[i]);
      continue;
    }
    pool_->free_atomic(slots[i]);
  }
  expect_occupancy_matches_walk(*pool_, "fragmented");
  const std::uint64_t reserved_before = pool_->occupancy().reserved_bytes;

  const pk::CompactReport report = pk::compact_pool(*pool_, refs);
  EXPECT_GT(report.reclaimed_chunks, 0u);
  expect_occupancy_matches_walk(*pool_, "compacted");
  EXPECT_LT(pool_->occupancy().reserved_bytes, reserved_before);
  EXPECT_DOUBLE_EQ(report.fragmentation_after,
                   pool_->stats().heap.fragmentation);

  // Emptied runs outside any compaction pass return the same way.
  for (pk::ObjId* slot : refs) pool_->free_atomic(slot);
  EXPECT_GT(pool_->heap().reclaim_empty_runs(), 0u);
  expect_occupancy_matches_walk(*pool_, "reclaimed");
}

TEST_F(HeapTest, OccupancyTracksResizeGrowAndShrink) {
  const std::uint64_t base = pool_->size();
  pool_->resize(base + 16 * pk::kChunkSize);
  expect_occupancy_matches_walk(*pool_, "grown");

  // Fill the base span so allocations land in the grown one, then drain.
  std::vector<pk::ObjId> held;
  for (;;) {
    try {
      held.push_back(pool_->alloc_atomic(4ull << 20, 5));
    } catch (const pk::AllocError&) {
      break;
    }
  }
  const pk::ObjId small = pool_->alloc_atomic(64, 5);
  expect_occupancy_matches_walk(*pool_, "grown span in use");
  for (const pk::ObjId& o : held) pool_->free_atomic(o);
  pool_->free_atomic(small);
  expect_occupancy_matches_walk(*pool_, "drained");

  // Shrink reclaims the emptied run before retracting the span.
  pool_->resize(base);
  EXPECT_EQ(pool_->size(), base);
  expect_occupancy_matches_walk(*pool_, "shrunk");
  EXPECT_EQ(pool_->occupancy().reserved_bytes, 0u);
}

TEST_F(HeapTest, OccupancySeededOnReopen) {
  for (int i = 0; i < 50; ++i)
    (void)pool_->alloc_atomic(static_cast<std::uint64_t>(40 + 997 * i), 6);
  (void)pool_->alloc_atomic(700000, 6);
  const pk::HeapOccupancy before = pool_->occupancy();
  expect_occupancy_matches_walk(*pool_, "before close");

  pool_.reset();
  pool_ = pk::ObjectPool::open(path_, "heap");
  expect_occupancy_matches_walk(*pool_, "reopened");
  EXPECT_EQ(pool_->occupancy().live_bytes, before.live_bytes);
  EXPECT_EQ(pool_->occupancy().reserved_bytes, before.reserved_bytes);
}

TEST_F(HeapTest, OccupancyExactAfterConcurrentChurn) {
  constexpr int kThreads = 4;
  FirstError errors;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(errors.wrap([this, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t + 1));
      std::vector<pk::ObjId> mine;
      for (int i = 0; i < 400; ++i) {
        if (mine.empty() || rng() % 3 != 0) {
          // Mostly run classes, now and then a huge span.
          const std::uint64_t size =
              rng() % 16 == 0 ? 300000 : 1 + rng() % 9000;
          if (rng() % 2 == 0) {
            mine.push_back(pool_->alloc_atomic(size, 7));
          } else {
            pool_->run_tx(
                [&] { mine.push_back(pool_->tx_alloc(size, 7)); });
          }
        } else {
          const std::size_t idx = rng() % mine.size();
          pool_->free_atomic(mine[idx]);
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(idx));
        }
      }
    }));
  }
  for (auto& w : workers) w.join();
  errors.check();
  expect_occupancy_matches_walk(*pool_, "after churn");
}

// A thread's current run must not outlive its run.  Thread T allocates and
// frees in one size class, which makes run R its current run; R is then
// reclaimed and its chunk reused by a huge allocation, as a covered (not
// head) chunk whose stale descriptor reads Free.  T's next allocation of
// the class must leave the huge object's bytes alone.
TEST_F(HeapTest, CurrentRunDropsWhenItsRunIsReclaimed) {
  const pk::ObjId first_chunk = pool_->alloc_atomic(100 * 1024, 2);
  std::promise<pk::ObjId> freed;
  std::promise<void> reused;
  pk::ObjId again = pk::kNullOid;
  std::thread t([&] {
    const pk::ObjId o = pool_->alloc_atomic(100, 3);
    pool_->free_atomic(o);
    freed.set_value(o);
    reused.get_future().wait();
    again = pool_->alloc_atomic(100, 3);
  });
  const std::uint32_t run =
      pool_->heap().chunk_index_of(freed.get_future().get().off);
  pool_->free_atomic(first_chunk);
  EXPECT_EQ(pool_->heap().reclaim_empty_runs(), 2u);

  constexpr std::uint64_t kHuge = 4 * pk::kChunkSize;
  const pk::ObjId huge = pool_->alloc_atomic(kHuge, 4);
  const std::uint32_t head = pool_->heap().chunk_index_of(huge.off);
  ASSERT_LT(head, run) << "the huge span must cover R past its head";
  ASSERT_LE(run, head + 4);
  std::memset(pool_->direct(huge), 0x5A, kHuge);
  pool_->persist(pool_->direct(huge), kHuge);
  reused.set_value();
  t.join();

  ASSERT_FALSE(again.is_null());
  EXPECT_EQ(pool_->type_of(again), 3u);
  const auto* bytes = static_cast<const unsigned char*>(pool_->direct(huge));
  std::uint64_t damaged = 0;
  for (std::uint64_t i = 0; i < kHuge; ++i) damaged += bytes[i] != 0x5A;
  EXPECT_EQ(damaged, 0u) << "an allocation landed inside the huge object";
  const pk::PoolReport report = pk::inspect(*pool_);
  EXPECT_TRUE(report.consistent) << pk::to_text(report);
}

// The same with a shrink: T's current run sits in a grown span that a
// shrink then retracts.  T's next allocation must land inside the heap
// that is left, never at a dropped chunk index.
TEST_F(HeapTest, CurrentRunDropsWhenItsSpanIsRetracted) {
  pool_.reset();
  fs::remove(path_);
  pool_ =
      pk::ObjectPool::create(path_, "heap", pk::ObjectPool::min_pool_size());
  const std::uint64_t base = pool_->size();
  // Fill the base span so T's run has to go to the grown one.
  std::vector<pk::ObjId> held;
  for (;;) {
    try {
      held.push_back(pool_->alloc_atomic(200 * 1024, 5));
    } catch (const pk::AllocError&) {
      break;
    }
  }
  ASSERT_FALSE(held.empty());
  const std::uint64_t base_chunks = pool_->stats().heap.chunk_count;
  pool_->resize(base + 4 * pk::kChunkSize);

  // The retraction must drop T's current run itself, not only make it
  // fail validation: take_current_run rejects an index past the heap, so
  // only the cached index shows a missing epoch bump.
  const int cls = pk::size_class_for(100 + sizeof(pk::AllocHeader));
  std::promise<pk::ObjId> freed;
  std::promise<void> shrunk;
  pk::ObjId again = pk::kNullOid;
  std::uint32_t cached = 0;
  std::thread t([&] {
    const pk::ObjId o = pool_->alloc_atomic(100, 3);
    pool_->free_atomic(o);
    freed.set_value(o);
    shrunk.get_future().wait();
    cached = pool_->heap().current_run_of(cls);
    again = pool_->alloc_atomic(100, 3);
  });
  EXPECT_GE(pool_->heap().chunk_index_of(freed.get_future().get().off),
            base_chunks);
  pool_->free_atomic(held.back());  // room for T in the base span
  pool_->resize(base);
  ASSERT_EQ(pool_->size(), base);
  shrunk.set_value();
  t.join();

  ASSERT_FALSE(again.is_null());
  EXPECT_EQ(cached, ~0u) << "T still names chunk " << cached
                         << " of a heap with "
                         << pool_->stats().heap.chunk_count << " chunks";
  EXPECT_LT(pool_->heap().chunk_index_of(again.off),
            pool_->stats().heap.chunk_count);
  EXPECT_EQ(pool_->type_of(again), 3u);
  const pk::PoolReport report = pk::inspect(*pool_);
  EXPECT_TRUE(report.consistent) << pk::to_text(report);
}

// A blocking chunk lock that finds its chunk held counts exactly one
// contended acquisition.  A is parked at redo:content, holding its run's
// chunk lock, while B frees an object of the same run.
TEST_F(HeapTest, ContendedChunkLockIsCountedOnce) {
  const pk::ObjId victim = pool_->alloc_atomic(100, 3);
  std::promise<void> parked;
  std::promise<void> resume;
  std::shared_future<void> resumed = resume.get_future().share();
  std::atomic<bool> parked_once{false};
  pk::set_crash_hook([&](std::string_view pt) {
    if (pt == "redo:content" && !parked_once.exchange(true)) {
      parked.set_value();
      resumed.wait();
    }
  });
  std::thread a([&] { (void)pool_->alloc_atomic(100, 3); });
  parked.get_future().wait();
  std::thread b([&] { pool_->free_atomic(victim); });
  while (pool_->heap().contention().chunk_lock == 0)
    std::this_thread::yield();
  resume.set_value();
  a.join();
  b.join();
  pk::set_crash_hook({});
  EXPECT_EQ(pool_->heap().contention().chunk_lock, 1u);
  EXPECT_EQ(pool_->stats().heap.contended.chunk_lock, 1u);
}

// One thread alone never finds a lock held: every contention count stays
// zero across runs, huge spans, transactions and checked reads.
TEST_F(HeapTest, SingleThreadCountsNoContention) {
  std::vector<pk::ObjId> objs;
  for (int i = 0; i < 300; ++i)
    objs.push_back(pool_->alloc_atomic(
        static_cast<std::uint64_t>(1 + (i * 997) % 9000), 6));
  objs.push_back(pool_->alloc_atomic(600 * 1024, 6));
  pool_->run_tx([&] {
    objs.push_back(pool_->tx_alloc(256, 6));
    pool_->tx_free(objs.front());
  });
  objs.erase(objs.begin());
  for (const pk::ObjId& o : objs) {
    EXPECT_EQ(pool_->heap().type_of_synced(o.off), 6u);
    EXPECT_TRUE(pool_->heap().is_live_synced(o.off));
  }
  for (const pk::ObjId& o : objs) pool_->free_atomic(o);
  (void)pool_->heap().reclaim_empty_runs();
  const pk::HeapStats s = pool_->stats().heap;
  EXPECT_EQ(s.contended.class_lock, 0u);
  EXPECT_EQ(s.contended.chunk_lock, 0u);
  EXPECT_EQ(s.contended.span_lock, 0u);
  EXPECT_EQ(s.run_lock_skips, 0u);
  EXPECT_EQ(s.run_lock_waits, 0u);
}

// ---------------------------------------------------------------------------
// Property: randomized alloc/free with a shadow map; objects never overlap,
// contents survive, rebuild after reopen agrees.
// ---------------------------------------------------------------------------

class HeapProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HeapProperty, RandomAllocFreeNoOverlapAndSurvivesReopen) {
  const fs::path path =
      fs::temp_directory_path() /
      ("heapprop-" + std::to_string(::getpid()) + "-" +
       std::to_string(GetParam()));
  fs::remove(path);
  auto pool = pk::ObjectPool::create(path, "prop", 32ull << 20);

  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint64_t> size_dist(1, 300000);
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint8_t>> live;
  std::vector<pk::ObjId> oids;

  for (int step = 0; step < 300; ++step) {
    const bool do_alloc = oids.empty() || (rng() % 3) != 0;
    if (do_alloc) {
      const std::uint64_t size = size_dist(rng);
      pk::ObjId oid;
      try {
        oid = pool->alloc_atomic(size, 1);
      } catch (const pk::AllocError&) {
        continue;  // heap full — fine under this workload
      }
      const auto fill = static_cast<std::uint8_t>(rng() & 0xff);
      const std::uint64_t usable = pool->usable_size(oid);
      // memset_persist, not raw memset + persist: the store annotation is
      // what lets the sanitizer tell a deliberate rewrite from a stray
      // flush when the fill bytes happen to match the old contents.
      pool->memset_persist(pool->direct(oid), fill, usable);
      // No overlap with any live object.
      const std::uint64_t begin = oid.off;
      const std::uint64_t end = begin + pool->usable_size(oid);
      for (const auto& [obegin, rest] : live) {
        const auto [olen, ofill] = rest;
        EXPECT_TRUE(end <= obegin || begin >= obegin + olen)
            << "overlap at step " << step;
      }
      live[begin] = {pool->usable_size(oid), fill};
      oids.push_back(oid);
    } else {
      const std::size_t idx = rng() % oids.size();
      const pk::ObjId oid = oids[idx];
      live.erase(oid.off);
      pool->free_atomic(oid);
      oids.erase(oids.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }

  // Contents intact for every live object.
  for (const pk::ObjId& oid : oids) {
    const auto [len, fill] = live[oid.off];
    const auto* p = static_cast<const std::uint8_t*>(pool->direct(oid));
    // Only the requested prefix is guaranteed; we wrote usable_size.
    for (std::uint64_t i = 0; i < len; i += 997)
      ASSERT_EQ(p[i], fill);
  }

  // Reopen: the rebuilt heap sees the same objects.
  const std::uint64_t expected = oids.size();
  pool.reset();
  pool = pk::ObjectPool::open(path, "prop");
  std::uint64_t found = 0;
  for (pk::ObjId o = pool->first(1); !o.is_null(); o = pool->next(o, 1))
    ++found;
  EXPECT_EQ(found, expected);
  expect_occupancy_matches_walk(*pool, "reopened");
  pool.reset();
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapProperty, ::testing::Range(1u, 13u));

}  // namespace

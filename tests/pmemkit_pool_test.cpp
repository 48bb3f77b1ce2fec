// Tests for ObjectPool lifecycle: create/open/close, validation, root
// objects, persistence across reopen.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "pmemkit/pmemkit.hpp"
#include "worker_errors.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pooltest-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path pool_path(const std::string& n = "p") const {
    return dir_ / n;
  }
  fs::path dir_;
};

constexpr std::uint64_t kSize = pk::ObjectPool::min_pool_size() * 2;

// Readers hammer the cached registry lookups while other pools churn
// open/close: lookups must stay coherent (never the churning pool for the
// stable pool's id) and data-race-free (this test is in the TSan CI
// suite).  The churn threads force continual generation bumps, so both the
// hit path and the invalidate-and-refill path run hot.
TEST_F(PoolTest, RegistryLookupsRaceWithOpenClose) {
  auto stable = pk::ObjectPool::create(pool_path("stable"), "reg", kSize);
  const std::uint64_t id = stable->pool_id();
  const void* inside = stable->region().base() + 4096;

  std::atomic<bool> stop{false};
  FirstError errors;
  std::thread churn([&] {
    errors.run([&] {
      for (int i = 0; i < 40; ++i) {
        auto p = pk::ObjectPool::create(pool_path("churn"), "reg", kSize);
        p.reset();
        fs::remove(pool_path("churn"));
      }
    });
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ASSERT_EQ(pk::pool_by_id(id), stable.get());
        ASSERT_EQ(pk::pool_containing(inside), stable.get());
      }
    });
  }
  churn.join();
  for (auto& r : readers) r.join();
  errors.check();
}

// The registry lookups are served from a generation-validated thread-local
// cache on the hot path.  Every open/close must bump the generation so a
// cached answer can never outlive the pool it names or shadow a newer
// same-id pool.
TEST_F(PoolTest, RegistryLookupCacheInvalidatesOnOpenAndClose) {
  auto a = pk::ObjectPool::create(pool_path("a"), "reg", kSize);
  const std::uint64_t id = a->pool_id();
  const void* inside = a->region().base() + 4096;

  // Warm the cache, then hit it.
  EXPECT_EQ(pk::pool_by_id(id), a.get());
  EXPECT_EQ(pk::pool_by_id(id), a.get());
  EXPECT_EQ(pk::pool_containing(inside), a.get());
  EXPECT_EQ(pk::pool_containing(inside), a.get());

  const std::uint64_t gen_before = pk::pool_registry_generation();
  auto b = pk::ObjectPool::create(pool_path("b"), "reg", kSize);
  EXPECT_GT(pk::pool_registry_generation(), gen_before);
  EXPECT_EQ(pk::pool_by_id(b->pool_id()), b.get());
  EXPECT_EQ(pk::pool_by_id(id), a.get());  // refilled after invalidation

  // Close A: cached hits for it must die with the generation bump.
  a.reset();
  EXPECT_EQ(pk::pool_by_id(id), nullptr);
  EXPECT_EQ(pk::pool_containing(inside), nullptr);
  // B survives, through a fresh cache fill.
  EXPECT_EQ(pk::pool_by_id(b->pool_id()), b.get());
}

TEST_F(PoolTest, CreateOpenRoundtrip) {
  std::uint64_t id = 0;
  {
    auto p = pk::ObjectPool::create(pool_path(), "layout-x", kSize);
    id = p->pool_id();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(p->layout(), "layout-x");
    EXPECT_EQ(p->size(), kSize);
  }
  auto p = pk::ObjectPool::open(pool_path(), "layout-x");
  EXPECT_EQ(p->pool_id(), id);
  EXPECT_FALSE(p->recovered());  // clean shutdown
}

TEST_F(PoolTest, CreateRejectsBadArguments) {
  EXPECT_THROW(pk::ObjectPool::create(pool_path(), "l",
                                      pk::ObjectPool::min_pool_size() - 1),
               pk::PoolError);
  const std::string long_layout(100, 'x');
  EXPECT_THROW(pk::ObjectPool::create(pool_path(), long_layout, kSize),
               pk::PoolError);
  // Existing file refuses create.
  { auto p = pk::ObjectPool::create(pool_path(), "l", kSize); }
  EXPECT_THROW(pk::ObjectPool::create(pool_path(), "l", kSize),
               pk::PoolError);
}

TEST_F(PoolTest, OpenRejectsWrongLayout) {
  { auto p = pk::ObjectPool::create(pool_path(), "alpha", kSize); }
  EXPECT_THROW(pk::ObjectPool::open(pool_path(), "beta"), pk::PoolError);
}

TEST_F(PoolTest, OpenRejectsNonPoolFile) {
  std::ofstream(pool_path()) << std::string(1 << 20, 'z');
  EXPECT_THROW(pk::ObjectPool::open(pool_path(), "l"), pk::PoolError);
}

TEST_F(PoolTest, OpenDetectsHeaderCorruption) {
  { auto p = pk::ObjectPool::create(pool_path(), "l", kSize); }
  // Flip a byte inside the checksummed identity area (pool_id).
  std::fstream f(pool_path(),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(80);
  f.put('\x5a');
  f.close();
  EXPECT_THROW(pk::ObjectPool::open(pool_path(), "l"), pk::PoolError);
}

TEST_F(PoolTest, DirtyShutdownIsReportedAsRecovered) {
  {
    auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
    p->mark_crashed();  // destructor skips the clean-shutdown flag
  }
  auto p = pk::ObjectPool::open(pool_path(), "l");
  EXPECT_TRUE(p->recovered());
  // A clean close then resets it.
  p.reset();
  auto q = pk::ObjectPool::open(pool_path(), "l");
  EXPECT_FALSE(q->recovered());
}

struct Root {
  std::uint64_t magic;
  pk::ObjId list;
};

TEST_F(PoolTest, RootIsZeroedAndStable) {
  {
    auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
    auto root = p->root<Root>();
    Root* r = p->direct(root);
    EXPECT_EQ(r->magic, 0u);
    EXPECT_TRUE(r->list.is_null());
    r->magic = 0xfeed;
    p->persist(&r->magic, sizeof(r->magic));
    // Second call returns the same object.
    EXPECT_EQ(p->root<Root>().raw, root.raw);
  }
  auto p = pk::ObjectPool::open(pool_path(), "l");
  EXPECT_EQ(p->direct(p->root<Root>())->magic, 0xfeedu);
}

TEST_F(PoolTest, RootSizeMismatchThrows) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  (void)p->root_raw(64);
  EXPECT_NO_THROW((void)p->root_raw(32));  // smaller is fine
  EXPECT_THROW((void)p->root_raw(128), pk::PoolError);
}

TEST_F(PoolTest, DirectValidatesOids) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  EXPECT_THROW((void)p->direct(pk::kNullOid), pk::PoolError);
  EXPECT_THROW((void)p->direct(pk::ObjId{1234, 64}), pk::PoolError);
  EXPECT_THROW((void)p->direct(pk::ObjId{p->pool_id(), p->size() + 1}),
               pk::PoolError);
}

TEST_F(PoolTest, OidForInvertsDirect) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  const pk::ObjId oid = p->alloc_atomic(256, 1);
  void* ptr = p->direct(oid);
  EXPECT_EQ(p->oid_for(ptr), oid);
  int local = 0;
  EXPECT_THROW((void)p->oid_for(&local), pk::PoolError);
}

TEST_F(PoolTest, DataPersistsAcrossReopen) {
  const char msg[] = "CXL memory as persistent memory";
  pk::ObjId oid{};
  {
    auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
    struct R { pk::ObjId data; };
    auto* r = p->direct(p->root<R>());
    oid = p->alloc_atomic(sizeof(msg), 9, &r->data);
    p->memcpy_persist(p->direct(oid), msg, sizeof(msg));
  }
  auto p = pk::ObjectPool::open(pool_path(), "l");
  struct R { pk::ObjId data; };
  auto* r = p->direct(p->root<R>());
  EXPECT_EQ(r->data, oid);
  EXPECT_STREQ(static_cast<const char*>(p->direct(r->data)), msg);
}

TEST_F(PoolTest, StatsReflectAllocations) {
  auto p = pk::ObjectPool::create(pool_path(), "l", kSize);
  const auto before = p->stats();
  (void)p->alloc_atomic(1000, 1);
  (void)p->alloc_atomic(1000, 1);
  const auto after = p->stats();
  EXPECT_EQ(after.heap.object_count, before.heap.object_count + 2);
  EXPECT_GT(after.heap.allocated_bytes, before.heap.allocated_bytes);
  EXPECT_EQ(after.lane_count, pk::kLaneCount);
  EXPECT_EQ(after.heap.alloc_ops, before.heap.alloc_ops + 2);
}

// Sharded-allocator stress: concurrent atomic alloc/free and transactions
// from many threads, across size classes and huge spans, must neither lose
// nor leak objects — and must not serialize through any global mutex (the
// contention counters exist so regressions here are observable).
TEST_F(PoolTest, ConcurrentMixedAllocFreeIsConsistent) {
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  auto p = pk::ObjectPool::create(pool_path(), "mt", 64ull << 20);
  struct R {
    pk::ObjId keep[kThreads];
  };
  auto* r = p->direct(p->root<R>());

  FirstError errors;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(errors.wrap([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Small object, published into the root (replacing the previous
        // one: free + alloc through the same in-pool destination).
        p->free_atomic(&r->keep[t]);
        (void)p->alloc_atomic(64 + (i % 7) * 100, 1000 + t, &r->keep[t]);
        // Scratch object across classes, freed immediately.
        const pk::ObjId tmp = p->alloc_atomic(48 + (i * 37) % 2000, 77);
        p->free_atomic(tmp);
        // Every few iterations, a huge span and a transaction.
        if (i % 16 == t % 16) {
          const pk::ObjId huge = p->alloc_atomic(300u << 10, 88);
          p->free_atomic(huge);
        }
        p->run_tx([&] {
          const pk::ObjId fresh = p->tx_alloc(256, 2000 + t);
          p->tx_free(fresh);
        });
      }
    }));
  }
  for (auto& th : threads) th.join();
  errors.check();

  // Exactly one published object per thread of its type; scratch types empty.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(r->keep[t].is_null());
    EXPECT_EQ(p->type_of(r->keep[t]), 1000u + t);
    int live = 0;
    for (pk::ObjId o = p->first(1000 + t); !o.is_null();
         o = p->next(o, 1000 + t))
      ++live;
    EXPECT_EQ(live, 1) << "t=" << t;
  }
  EXPECT_TRUE(p->first(77).is_null());
  EXPECT_TRUE(p->first(88).is_null());
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(p->first(2000 + t).is_null());

  const auto s = p->stats();
  EXPECT_GE(s.heap.alloc_ops,
            static_cast<std::uint64_t>(kThreads) * kIters * 3);
  // Reopen: the image a clean close leaves behind must rebuild.
  p.reset();
  p = pk::ObjectPool::open(pool_path(), "mt");
  EXPECT_FALSE(p->recovered());
}

// Every lane of one pool checked out: a further checkout on that pool
// sleeps (counted in lane_waits) until a lane comes back, while a checkout
// on a second pool goes straight through — the free-lane mask is per pool.
TEST_F(PoolTest, CheckoutSleepsOnlyWhileItsPoolHasNoFreeLane) {
  auto full = pk::ObjectPool::create(pool_path("full"), "lanes", kSize);
  auto other = pk::ObjectPool::create(pool_path("other"), "lanes", kSize);
  constexpr int kLanes = static_cast<int>(pk::kLaneCount);

  std::mutex mu;
  std::condition_variable cv;
  int pinned = 0;
  int may_end = 0;  // sessions allowed to end
  FirstError errors;
  std::vector<std::thread> holders;
  holders.reserve(kLanes);
  for (int t = 0; t < kLanes; ++t) {
    holders.emplace_back(errors.wrap([&] {
      const pk::ObjectPool::LaneSession session(*full);
      std::unique_lock<std::mutex> lock(mu);
      ++pinned;
      cv.notify_all();
      cv.wait(lock, [&] { return may_end > 0; });
      --may_end;
    }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pinned == kLanes; });
  }

  const std::uint64_t waits_before = full->stats().lane_waits;
  std::atomic<bool> done{false};
  std::thread sleeper(errors.wrap([&] {
    full->run_tx([] {});
    done.store(true);
  }));
  while (full->stats().lane_waits == waits_before) std::this_thread::yield();
  EXPECT_FALSE(done.load()) << "a checkout went through with no lane free";

  other->run_tx([] {});
  EXPECT_EQ(other->stats().lane_waits, 0u);
  EXPECT_FALSE(done.load());

  {
    const std::lock_guard<std::mutex> lock(mu);
    may_end = 1;
    cv.notify_all();
  }
  sleeper.join();
  EXPECT_TRUE(done.load());
  {
    const std::lock_guard<std::mutex> lock(mu);
    may_end = kLanes;
    cv.notify_all();
  }
  for (auto& h : holders) h.join();
  errors.check();
  EXPECT_EQ(full->stats().lane_waits, waits_before + 1);
}

// A thread's checkouts keep to its last lane while that lane stays free,
// even with a lower lane free: each thread keeps writing its own lane's
// log lines.  Both threads are fresh, so each first gets the lowest free
// lane.
TEST_F(PoolTest, ConsecutiveCheckoutsKeepTheThreadsLane) {
  auto p = pk::ObjectPool::create(pool_path(), "lanes", kSize);
  std::promise<std::uint32_t> low_held;
  std::promise<void> first_done;
  std::promise<void> low_free;
  std::thread low_holder([&] {
    {
      const pk::ObjectPool::LaneSession session(*p);
      low_held.set_value(session.lane());
      first_done.get_future().wait();
    }
    low_free.set_value();
  });
  std::uint32_t low = 0;
  std::uint32_t first = 0;
  std::vector<std::uint32_t> later;
  std::thread worker([&] {
    low = low_held.get_future().get();
    {
      const pk::ObjectPool::LaneSession session(*p);
      first = session.lane();
    }
    first_done.set_value();
    low_free.get_future().wait();
    for (int i = 0; i < 4; ++i) {
      const pk::ObjectPool::LaneSession session(*p);
      later.push_back(session.lane());
    }
  });
  low_holder.join();
  worker.join();
  EXPECT_LT(low, first);
  for (const std::uint32_t lane : later) EXPECT_EQ(lane, first);
}

}  // namespace

// service_durable_map_test — the hash map cxlpmemd serves and kv_store
// demonstrates: basic semantics on a raw pool, reopen persistence, batch
// composition under one caller-owned transaction, refusal of a pool written
// under another bucket placement or layout, chain length under one shard's
// load, and an exhaustive crash-injection sweep proving every mutation is
// crash-atomic.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "api/ptr.hpp"
#include "pmemkit/checksum.hpp"
#include "pmemkit/crash_sim.hpp"
#include "pmemkit/errors.hpp"
#include "pmemkit/introspect.hpp"
#include "pmemkit/pool.hpp"
#include "service/durable_map.hpp"

namespace {

namespace fs = std::filesystem;
using namespace cxlpmem;
using service::DurableMap;

class ServiceDurableMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("svc-dmap-" + std::to_string(::getpid()) + ".pool");
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }

  std::unique_ptr<pmemkit::ObjectPool> make_pool() {
    return pmemkit::ObjectPool::create(path_, "dmap-test",
                                       pmemkit::ObjectPool::min_pool_size());
  }

  fs::path path_;
};

TEST_F(ServiceDurableMapTest, PutGetEraseExists) {
  auto pool = make_pool();
  DurableMap map(*pool);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.get("missing").has_value());

  map.put("alpha", "1");
  map.put("beta", "2");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.get("alpha").value(), "1");
  EXPECT_TRUE(map.exists("beta"));

  map.put("alpha", "overwritten");  // idempotent overwrite, count stable
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.get("alpha").value(), "overwritten");

  EXPECT_TRUE(map.erase("alpha"));
  EXPECT_FALSE(map.erase("alpha"));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_FALSE(map.exists("alpha"));
}

TEST_F(ServiceDurableMapTest, BinaryKeysAndValuesSurvive) {
  auto pool = make_pool();
  DurableMap map(*pool);
  const std::string key("k\0ey", 4);
  const std::string value("v\0\xff\x01lue", 7);
  map.put(key, value);
  EXPECT_EQ(map.get(key).value(), value);
  EXPECT_FALSE(map.exists(std::string("k\0ex", 4)));
}

TEST_F(ServiceDurableMapTest, ContentsSurviveReopen) {
  {
    auto pool = make_pool();
    DurableMap map(*pool);
    for (int i = 0; i < 100; ++i)
      map.put("key" + std::to_string(i), "value" + std::to_string(i));
    map.erase("key50");
  }
  auto pool = pmemkit::ObjectPool::open(path_, "dmap-test");
  DurableMap map(*pool);
  EXPECT_EQ(map.size(), 99u);
  EXPECT_EQ(map.get("key7").value(), "value7");
  EXPECT_FALSE(map.exists("key50"));
  const pmemkit::PoolReport report = pmemkit::inspect(*pool);
  EXPECT_TRUE(report.consistent) << pmemkit::to_text(report);
}

TEST_F(ServiceDurableMapTest, BatchComposesUnderOneTransaction) {
  auto pool = make_pool();
  DurableMap map(*pool);
  map.put("stale", "x");
  // A shard worker's batch: several mutations, one commit — and a read
  // inside the transaction sees the writes queued before it.
  pool->run_tx([&] {
    map.put_in_tx("a", "1");
    map.put_in_tx("b", "2");
    EXPECT_EQ(map.get("a").value(), "1");  // read-your-writes in batch
    EXPECT_TRUE(map.erase_in_tx("stale"));
    map.put_in_tx("a", "1'");
  });
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.get("a").value(), "1'");
  EXPECT_FALSE(map.exists("stale"));
}

// Chain walks resolve each node once; that single resolution must still be
// the checked one.  A `next` link aimed at an object of another type stops
// every walk that reaches it with TypeMismatch instead of reading the
// foreign bytes as an Entry.
TEST_F(ServiceDurableMapTest, ChainWalkTypeChecksEveryNode) {
  using OneBucketMap = service::BasicDurableMap<1>;  // one chain
  auto pool = make_pool();
  OneBucketMap map(*pool);
  map.put("first", "1");
  map.put("second", "2");  // chain: second -> first

  // collect_refs() lists the bucket head, then second's `next` link.
  const std::vector<pmemkit::ObjId*> refs = map.collect_refs();
  ASSERT_EQ(refs.size(), 2u);
  const pmemkit::ObjId foreign = pool->alloc_atomic(64, 0x5eed, nullptr,
                                                    /*zero=*/true);
  pool->memcpy_persist(refs[1], &foreign, sizeof(foreign));

  EXPECT_EQ(map.get("second").value(), "2");  // the head is still an Entry
  const auto expect_type_mismatch = [](const auto& walk, const char* what) {
    try {
      walk();
      ADD_FAILURE() << what << " walked past a foreign-typed link";
    } catch (const pmemkit::PoolError& e) {
      EXPECT_EQ(e.kind(), pmemkit::ErrKind::TypeMismatch) << what;
    }
  };
  expect_type_mismatch([&] { (void)map.get("first"); }, "get");
  expect_type_mismatch([&] { (void)map.exists("first"); }, "exists");
  expect_type_mismatch([&] { (void)map.erase("first"); }, "erase");
}

// A pool written under the FNV-1a bucket placement holds a root of the same
// type, one word smaller.  Binding the map to it must fail rather than look
// the pool's keys up in fingerprint64 buckets, where they are not.
TEST_F(ServiceDurableMapTest, PoolWithTheFnvPlacementRootIsRefused) {
  using Root = DurableMap::Root;
  auto pool = make_pool();
  (void)pool->root_raw(sizeof(Root::buckets) + sizeof(Root::count),
                       api::type_number<Root>());
  try {
    DurableMap map(*pool);
    ADD_FAILURE() << "bound a map to the FNV-1a placement's root";
  } catch (const pmemkit::PoolError& e) {
    EXPECT_EQ(e.kind(), pmemkit::ErrKind::BadAlloc) << e.what();
  }
}

// Every map pool written while the default was 256 buckets holds a root
// smaller than this build's; a pool written by a map with more buckets holds
// one of another type.  Either way binding is refused with a message that
// names the cause, and the pool keeps its keys for a build that reads them.
TEST_F(ServiceDurableMapTest, PoolWithAnotherBucketLayoutIsRefused) {
  using OldMap = service::BasicDurableMap<256>;
  const auto expect_refused = [](const auto& bind, pmemkit::ErrKind kind) {
    try {
      bind();
      ADD_FAILURE() << "bound a map to a root of another bucket layout";
    } catch (const pmemkit::PoolError& e) {
      EXPECT_EQ(e.kind(), kind) << e.what();
      const std::string what = e.what();
      EXPECT_NE(what.find("different bucket layout"), std::string::npos)
          << what;
      EXPECT_NE(what.find("must be recreated"), std::string::npos) << what;
    }
  };
  {
    auto pool = make_pool();
    OldMap(*pool).put("alpha", "1");
  }
  auto pool = pmemkit::ObjectPool::open(path_, "dmap-test");
  expect_refused([&] { DurableMap map(*pool); }, pmemkit::ErrKind::BadAlloc);
  EXPECT_EQ(OldMap(*pool).get("alpha").value(), "1");

  pool.reset();
  fs::remove(path_);
  pool = make_pool();
  DurableMap(*pool).put("beta", "2");
  expect_refused([&] { OldMap map(*pool); }, pmemkit::ErrKind::TypeMismatch);
}

// One kv_write shard's load: 10,000 distinct keys that all route to one
// shard (fnv1a64 % 4 == 0), in the benchmark's "w<conn>:<id>" form.  Spread
// over 4093 buckets the chains average ~2.4 keys; placement is a fixed hash,
// so the longest chain is a fixed number, and 12 bounds it with room to
// spare.  256 buckets (~39 per chain) or a placement that used a fraction
// of the buckets would exceed it.
TEST_F(ServiceDurableMapTest, OneShardsKeysKeepChainsShort) {
  auto pool = make_pool();
  DurableMap map(*pool);
  constexpr std::uint64_t kKeys = 10000;
  for (int conn = 0; map.size() < kKeys; ++conn)
    for (int id = 0; id < 10000 && map.size() < kKeys; ++id) {
      const std::string key =
          "w" + std::to_string(conn) + ":" + std::to_string(id);
      if (pmemkit::fnv1a64(key) % 4 == 0) map.put(key, "v");
    }

  using Root = DurableMap::Root;
  const auto* root = static_cast<const Root*>(
      pool->direct(pool->root_raw(sizeof(Root), api::type_number<Root>())));
  std::uint64_t walked = 0;
  int longest = 0;
  for (const auto& head : root->buckets) {
    int n = 0;
    for (const auto* e = head.get().get(); e != nullptr;
         e = e->next.get().get())
      ++n;
    walked += static_cast<std::uint64_t>(n);
    longest = std::max(longest, n);
  }
  EXPECT_EQ(walked, kKeys);
  EXPECT_LE(longest, 12) << "over " << DurableMap::bucket_count()
                         << " buckets";
}

// ---------------------------------------------------------------------------
// Crash atomicity, exhaustively: a batch of put/overwrite/erase is cut by a
// simulated power failure at every instrumentation point; the recovered map
// must hold exactly the pre-batch state or the post-batch state — never a
// torn mix, never a broken chain.
// ---------------------------------------------------------------------------

TEST_F(ServiceDurableMapTest, MutationsAreCrashAtomic) {
  pmemkit::CrashSimulator::Config config;
  config.pool_path = path_;
  pmemkit::CrashSimulator sim(config);

  const auto expect = [](DurableMap& map, const char* key,
                         const char* want) {
    const auto got = map.get(key);
    if (!got.has_value())
      throw std::runtime_error(std::string("lost key ") + key);
    if (*got != want)
      throw std::runtime_error(std::string(key) + "=" + *got +
                               ", expected " + want);
  };

  const std::size_t points = sim.run(
      /*setup=*/
      [](pmemkit::ObjectPool& p) {
        DurableMap map(p);
        map.put("keep", "k0");
        map.put("overwrite", "old");
        map.put("remove", "r0");
      },
      /*scenario=*/
      [](pmemkit::ObjectPool& p) {
        DurableMap map(p);
        p.run_tx([&] {
          map.put_in_tx("fresh", "f1");
          map.put_in_tx("overwrite", "new");
          map.erase_in_tx("remove");
        });
      },
      /*verify=*/
      [&](pmemkit::ObjectPool& p) {
        DurableMap map(p);
        expect(map, "keep", "k0");  // untouched key always intact
        const bool committed = map.exists("fresh");
        if (committed) {
          expect(map, "fresh", "f1");
          expect(map, "overwrite", "new");
          if (map.exists("remove"))
            throw std::runtime_error("erase lost but put kept: torn batch");
          if (map.size() != 3)
            throw std::runtime_error("bad count after commit");
        } else {
          expect(map, "overwrite", "old");
          expect(map, "remove", "r0");
          if (map.size() != 3)
            throw std::runtime_error("bad count after rollback");
        }
        const pmemkit::PoolReport report = pmemkit::inspect(p);
        if (!report.consistent)
          throw std::runtime_error("inconsistent pool: " +
                                   pmemkit::to_text(report));
      });
  // The batch has allocation, field snapshots, payload writes and a free —
  // a sweep that found only a handful of points would mean the hooks are
  // not seeing the map's writes.
  EXPECT_GT(points, 10u);
}

}  // namespace

// Exhaustive crash-injection tests: power failure at every persistence-
// ordering point, under both crash policies.  These are the tests that back
// the paper's §1.4 claim of transactional integrity on (CXL-) PMem.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"
#include "worker_errors.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

struct Root {
  std::uint64_t a;
  std::uint64_t b;
  pk::ObjId obj;
  std::uint64_t len;
};

pk::CrashSimulator::Config config_for(const std::string& name,
                                      pk::CrashPolicy policy,
                                      std::uint64_t seed) {
  pk::CrashSimulator::Config cfg;
  cfg.pool_path = fs::temp_directory_path() /
                  ("crash-" + std::to_string(::getpid()) + "-" + name);
  cfg.policy = policy;
  cfg.seed = seed;
  return cfg;
}

class CrashPolicyTest
    : public ::testing::TestWithParam<pk::CrashPolicy> {};

// The fundamental tx guarantee: a multi-field update is all-or-nothing.
TEST_P(CrashPolicyTest, TransactionIsAtomic) {
  auto cfg = config_for("tx-atomic", GetParam(), 11);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 1;
    r->b = 2;
    p.persist(r, sizeof(Root));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.run_tx([&] {
      p.tx_add_range(r, sizeof(Root));
      r->a = 100;
      r->b = 200;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    const bool pre = r->a == 1 && r->b == 2;
    const bool post = r->a == 100 && r->b == 200;
    ASSERT_TRUE(pre || post)
        << "torn transaction: a=" << r->a << " b=" << r->b;
  };
  const std::size_t points = pk::CrashSimulator(cfg).run(setup, scenario,
                                                         verify);
  EXPECT_GT(points, 4u);
}

// Gap-only snapshotting (one add_range may publish several entries under
// one fence, and covered bytes are never re-logged): atomicity must hold at
// every crash point of a transaction built from overlapping ranges.
TEST_P(CrashPolicyTest, OverlappingSnapshotsStayAtomic) {
  auto cfg = config_for("tx-overlap", GetParam(), 17);
  struct WideRoot {
    std::uint64_t v[8];
  };
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<WideRoot>());
    for (int i = 0; i < 8; ++i) r->v[i] = 10 + i;
    p.persist(r, sizeof(WideRoot));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<WideRoot>());
    p.run_tx([&] {
      p.tx_add_range(&r->v[0], 16);  // [0, 2)
      r->v[0] = 100;
      p.tx_add_range(&r->v[1], 24);  // [1, 4): logs only [2, 4)
      r->v[1] = 101;
      r->v[3] = 103;
      p.tx_add_range(&r->v[5], 8);   // island [5, 6)
      r->v[5] = 105;
      p.tx_add_range(r->v, sizeof(r->v));  // bridges gaps [4,5) + [6,8)
      for (int i = 0; i < 8; ++i) r->v[i] = 100 + i;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<WideRoot>());
    const bool pre = r->v[0] == 10;
    for (std::uint64_t i = 0; i < 8; ++i)
      ASSERT_EQ(r->v[i], (pre ? 10 : 100) + i)
          << "torn overlapping-snapshot tx at i=" << i;
  };
  const std::size_t points =
      pk::CrashSimulator(cfg).run(setup, scenario, verify);
  EXPECT_GT(points, 8u);
}

// POBJ_ALLOC semantics: the object and the destination oid appear together.
TEST_P(CrashPolicyTest, AtomicAllocPublishesAllOrNothing) {
  auto cfg = config_for("alloc-publish", GetParam(), 23);
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    const pk::ObjId oid = p.alloc_atomic(512, 7, &r->obj);
    std::memset(p.direct(oid), 0xAB, 512);
    p.persist(p.direct(oid), 512);
    r->len = 512;
    p.persist(&r->len, 8);
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    if (r->obj.is_null()) {
      // Not published: no leaked object may exist.
      ASSERT_TRUE(p.first(7).is_null()) << "leaked allocation";
    } else {
      // Published: the oid must point at a live object of the right type.
      ASSERT_EQ(p.type_of(r->obj), 7u);
      ASSERT_GE(p.usable_size(r->obj), 512u);
    }
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

// POBJ_FREE semantics: free + null-the-oid happen together.
TEST_P(CrashPolicyTest, AtomicFreeUnpublishesAllOrNothing) {
  auto cfg = config_for("free-unpublish", GetParam(), 37);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    (void)p.alloc_atomic(256, 9, &r->obj);
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.free_atomic(&r->obj);
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    if (r->obj.is_null()) {
      ASSERT_TRUE(p.first(9).is_null()) << "freed object still reachable";
    } else {
      ASSERT_EQ(p.type_of(r->obj), 9u) << "dangling oid after crash";
    }
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

// A crash after an alloc_atomic's redo log published but before it applied
// leaves the chunk Free on media until recovery replays the log.  The heap's
// free-chunk map must be built from the replayed image: otherwise the
// recovered object's chunk is handed out again.  Verify allocates blocks
// that each need fresh chunks and checks the published object survives.
void expect_published_object_survives(pk::ObjectPool& p,
                                      std::uint64_t probe_size) {
  auto* r = p.direct(p.root<Root>());
  std::vector<pk::ObjId> fresh;
  try {
    for (int i = 0; i < 8; ++i) fresh.push_back(p.alloc_atomic(probe_size, 8));
  } catch (const pk::AllocError&) {
    // Heap full: every free chunk has been probed.
  }
  ASSERT_FALSE(fresh.empty());
  if (r->obj.is_null()) {
    ASSERT_TRUE(p.first(7).is_null()) << "leaked allocation";
    return;
  }
  ASSERT_EQ(p.type_of(r->obj), 7u) << "published object was reallocated";
  const std::uint64_t begin = r->obj.off;
  const std::uint64_t end = begin + p.usable_size(r->obj);
  for (const pk::ObjId& o : fresh) {
    const std::uint64_t ob = o.off;
    const std::uint64_t oe = ob + p.usable_size(o);
    ASSERT_TRUE(oe <= begin || ob >= end)
        << "fresh block [" << ob << ", " << oe
        << ") overlaps the published object [" << begin << ", " << end
        << ")";
  }
  const pk::PoolReport report = pk::inspect(p);
  ASSERT_TRUE(report.consistent) << pk::to_text(report);
}

TEST_P(CrashPolicyTest, AtomicAllocFreshRunSurvivesRedoReplay) {
  auto cfg = config_for("redo-run", GetParam(), 29);
  // 100 KiB is the one-block-per-run class: every allocation of it, the
  // scenario's and the probes', materializes a fresh run chunk.
  constexpr std::uint64_t kSize = 100 * 1024;
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    (void)p.alloc_atomic(kSize, 7, &r->obj);
  };
  const auto verify = [](pk::ObjectPool& p) {
    expect_published_object_survives(p, kSize);
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

TEST_P(CrashPolicyTest, AtomicAllocHugeSpanSurvivesRedoReplay) {
  auto cfg = config_for("redo-huge", GetParam(), 31);
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    (void)p.alloc_atomic(300 * 1024, 7, &r->obj);  // a two-chunk span
  };
  const auto verify = [](pk::ObjectPool& p) {
    expect_published_object_survives(p, 200 * 1024);  // one-chunk spans
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

// Transactional alloc + free + data update in one tx.
TEST_P(CrashPolicyTest, ComposedTransactionAtomicity) {
  auto cfg = config_for("composed", GetParam(), 41);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    const pk::ObjId old = p.alloc_atomic(128, 5, &r->obj);
    std::memset(p.direct(old), 0x01, 128);
    p.persist(p.direct(old), 128);
    r->len = 128;
    r->a = 1;
    p.persist(r, sizeof(Root));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.run_tx([&] {
      // Replace the object with a bigger one, transactionally.
      const pk::ObjId fresh = p.tx_alloc(256, 5);
      // No explicit persist: tx_alloc registers the block as a fresh range
      // and commit flushes it before the record publishes.
      std::memset(p.direct(fresh), 0x02, 256);
      p.tx_free(r->obj);
      p.tx_add_range(r, sizeof(Root));
      r->obj = fresh;
      r->len = 256;
      r->a = 2;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    // Either the old world or the new world, consistently.
    ASSERT_TRUE(r->a == 1 || r->a == 2);
    const std::uint64_t expect_len = r->a == 1 ? 128 : 256;
    const int expect_fill = r->a == 1 ? 0x01 : 0x02;
    ASSERT_EQ(r->len, expect_len);
    ASSERT_FALSE(r->obj.is_null());
    ASSERT_GE(p.usable_size(r->obj), expect_len);
    const auto* data = static_cast<const std::uint8_t*>(p.direct(r->obj));
    for (std::uint64_t i = 0; i < expect_len; i += 17)
      ASSERT_EQ(data[i], expect_fill);
    // Exactly one live object of type 5 in either world.
    int count = 0;
    for (pk::ObjId o = p.first(5); !o.is_null(); o = p.next(o, 5)) ++count;
    ASSERT_EQ(count, 1) << "leak or lost object";
  };
  const std::size_t points =
      pk::CrashSimulator(cfg).run(setup, scenario, verify);
  EXPECT_GT(points, 10u);
}

// Unflushed user data must not be trusted: a store without persist() is
// allowed to vanish — the framework's DropUnflushed policy enforces the
// discipline.
TEST(CrashSim, UnpersistedUserDataVanishes) {
  auto cfg = config_for("vanish", pk::CrashPolicy::DropUnflushed, 3);
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 0xBAD;     // no persist on purpose
    p.persist(&r->b, 8);  // unrelated persist creates a crash point
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    ASSERT_EQ(r->a, 0u) << "unflushed store survived under strict policy";
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

// eADR (battery covers the caches): the same scenario as above, but every
// store survives — and transactional atomicity STILL holds, because the
// undo protocol never depends on losing data, only on ordering.
TEST(CrashSim, EadrKeepsUnflushedStoresAndPreservesAtomicity) {
  auto cfg = config_for("eadr", pk::CrashPolicy::EadrEverythingSurvives, 5);
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 1;
    r->b = 2;
    p.persist(r, sizeof(Root));
  };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->len = 0xBAD;  // deliberately never flushed
    p.persist(&r->obj, sizeof(r->obj));  // unrelated crash point
    p.run_tx([&] {
      p.tx_add_range(&r->a, 16);
      r->a = 100;
      r->b = 200;
    });
  };
  const auto verify = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    // Under eADR the unflushed store is durable at every crash point past
    // its execution; atomicity of the tx is unaffected.
    const bool pre = r->a == 1 && r->b == 2;
    const bool post = r->a == 100 && r->b == 200;
    ASSERT_TRUE(pre || post) << "torn tx under eADR";
    if (post) {
      ASSERT_EQ(r->len, 0xBADu) << "eADR lost an executed store";
    }
  };
  pk::CrashSimulator(cfg).run(setup, scenario, verify);
}

TEST(CrashSim, CountsAreStableAcrossPolicies) {
  // Both policies see the same instrumentation points.
  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    p.run_tx([&] {
      p.tx_add_range(&r->a, 8);
      r->a = 9;
    });
  };
  const auto verify = [](pk::ObjectPool&) {};
  auto cfg1 = config_for("count-a", pk::CrashPolicy::DropUnflushed, 1);
  auto cfg2 = config_for("count-b", pk::CrashPolicy::RandomEvict, 1);
  EXPECT_EQ(pk::CrashSimulator(cfg1).run(setup, scenario, verify),
            pk::CrashSimulator(cfg2).run(setup, scenario, verify));
}

// --- multi-threaded crash consistency ---------------------------------------
//
// N threads drive mixed tx/atomic workloads through distinct lanes; a
// thread-safe hook turns every crash point past a global trip count into a
// power cut, so each lane stops at one of ITS persistence points with
// several lanes in flight at once.  Reopen must recover every lane and
// leave the heap internally consistent.
TEST(CrashSimMT, MixedWorkloadAcrossLanesRecoversConsistently) {
  constexpr int kThreads = 4;
  struct MtRoot {
    pk::ObjId slot[kThreads];
    std::uint64_t val[kThreads];
  };
  const fs::path path = fs::temp_directory_path() /
                        ("crash-mt-" + std::to_string(::getpid()));

  for (const std::uint64_t trip : {40ull, 97ull, 230ull, 555ull}) {
    fs::remove(path);
    pk::PoolOptions opts;
    opts.track_shadow = true;
    auto pool = pk::ObjectPool::create(path, "mt", 64ull << 20, opts);
    (void)pool->direct(pool->root<MtRoot>());

    // Install AFTER setup so the trip count only meters the workload.
    std::atomic<std::uint64_t> points{0};
    pk::set_crash_hook([&points, trip](std::string_view pt) {
      if (points.fetch_add(1, std::memory_order_relaxed) >= trip)
        throw pk::CrashInjected{std::string(pt)};
    });

    FirstError errors;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back(errors.wrap([&pool, &points, trip, t] {
        auto* r = pool->direct(pool->root<MtRoot>());
        try {
          for (std::uint64_t i = 1; points.load() <= trip; ++i) {
            // Transactional publish: slot[t]/val[t] swap to a fresh object
            // whose payload encodes (t, i); the old object dies at commit.
            pool->run_tx([&] {
              const pk::ObjId fresh = pool->tx_alloc(128, 10 + t);
              auto* d = static_cast<std::uint64_t*>(pool->direct(fresh));
              d[0] = static_cast<std::uint64_t>(t);
              d[1] = i;
              // No explicit persist: the fresh range is flushed by commit
              // before the record publishes, so the payload is durable
              // whenever the commit is.
              pool->tx_add_range(&r->slot[t], sizeof(r->slot[t]));
              pool->tx_add_range(&r->val[t], sizeof(r->val[t]));
              if (!r->slot[t].is_null()) pool->tx_free(r->slot[t]);
              r->slot[t] = fresh;
              r->val[t] = i;
            });
            // Atomic churn on a per-thread side type.
            const pk::ObjId tmp = pool->alloc_atomic(64, 50 + t);
            pool->free_atomic(tmp);
          }
        } catch (const pk::CrashInjected&) {
          // This lane's power cut: stop dead, no cleanup.
        }
      }));
    }
    for (auto& w : workers) w.join();
    pk::set_crash_hook({});
    errors.check();
    ASSERT_GT(points.load(), trip) << "workload never reached the trip";

    pool->mark_crashed();
    const std::vector<std::byte> image =
        pool->region().crash_image(pk::CrashPolicy::DropUnflushed, trip);
    pool.reset();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
      ASSERT_TRUE(out);
    }

    auto re = pk::ObjectPool::open(path, "mt");
    auto* r = re->direct(re->root<MtRoot>());
    for (int t = 0; t < kThreads; ++t) {
      // Per-lane atomicity: slot and val moved together, and exactly the
      // published object of this type is live (no leak, no lost object).
      int live = 0;
      for (pk::ObjId o = re->first(10 + t); !o.is_null();
           o = re->next(o, 10 + t))
        ++live;
      if (r->slot[t].is_null()) {
        EXPECT_EQ(r->val[t], 0u) << "t=" << t;
        EXPECT_EQ(live, 0) << "t=" << t;
      } else {
        ASSERT_EQ(live, 1) << "t=" << t << ": leak or lost object";
        ASSERT_EQ(re->type_of(r->slot[t]), 10u + t);
        const auto* d =
            static_cast<const std::uint64_t*>(re->direct(r->slot[t]));
        EXPECT_EQ(d[0], static_cast<std::uint64_t>(t));
        EXPECT_EQ(d[1], r->val[t]) << "t=" << t << ": torn slot/val pair";
      }
      // Atomic churn: at most the one in-flight object may survive
      // (alloc_atomic without a destination is unreachable by design).
      int churn = 0;
      for (pk::ObjId o = re->first(50 + t); !o.is_null();
           o = re->next(o, 50 + t))
        ++churn;
      EXPECT_LE(churn, 1) << "t=" << t;
    }
    // Heap-wide structural consistency, via the same validation rebuild()
    // runs plus the introspection walker.
    const pk::PoolReport report = pk::inspect(*re);
    EXPECT_TRUE(report.consistent) << [&] {
      std::string all;
      for (const auto& p : report.problems) all += p + "; ";
      return all;
    }();
    EXPECT_TRUE(report.busy_lanes.empty())
        << "recovery left a lane non-idle";
    re.reset();
    fs::remove(path);
  }
}

// The interleaving behind the MT test's old census/bitmap mismatch, made
// deterministic.  Lane j holds an uncommitted tx_alloc'd object J when lane
// i > j publishes, and never applies, an alloc_atomic's redo log in the same
// run.  Redo cells are absolute words, so i's bitmap cell still carries J's
// bit.  Recovery must replay that cell before j's rollback clears the bit:
// the other order resurrects J's bit under a dead header.
TEST(CrashSimMT, RedoReplayPrecedesOtherLanesRollback) {
  const fs::path path = fs::temp_directory_path() /
                        ("crash-redo-lanes-" + std::to_string(::getpid()));
  fs::remove(path);
  pk::PoolOptions opts;
  opts.track_shadow = true;
  auto pool = pk::ObjectPool::create(path, "mt", pk::ObjectPool::min_pool_size(),
                                     opts);

  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;
  const auto advance = [&](int to) {
    const std::lock_guard<std::mutex> lock(mu);
    stage = std::max(stage, to);
    cv.notify_all();
  };
  const auto await = [&](int at) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage >= at; });
  };

  // Both sides run on fresh threads, and a fresh thread checks out the
  // lowest free lane: the transaction side pins first and so holds the
  // lower lane j.
  std::vector<std::byte> image;
  std::uint32_t tx_lane = 0;
  std::uint32_t atomic_lane = 0;
  FirstError errors;
  std::thread tx_side([&] {
    errors.run([&] {
      const pk::ObjectPool::LaneSession session(*pool);
      tx_lane = session.lane();
      advance(1);
      await(2);  // the atomic side has pinned its lane
      try {
        pool->run_tx([&] {
          (void)pool->tx_alloc(64, 10);
          advance(3);
          await(4);
          throw pk::CrashInjected{"power cut with the transaction open"};
        });
      } catch (const pk::CrashInjected&) {
      }
    });
    advance(4);  // also on failure: the atomic side waits for it
  });
  std::thread atomic_side([&] {
    errors.run([&] {
      await(1);
      const pk::ObjectPool::LaneSession session(*pool);
      atomic_lane = session.lane();
      advance(2);
      await(3);  // J is allocated, its transaction still open
      pk::set_crash_hook([](std::string_view pt) {
        if (pt == "redo:published") throw pk::CrashInjected{std::string(pt)};
      });
      try {
        (void)pool->alloc_atomic(64, 11);  // same class, same run as J
      } catch (const pk::CrashInjected&) {
      }
      pk::set_crash_hook({});
      image = pool->region().crash_image(pk::CrashPolicy::DropUnflushed, 1);
    });
    advance(4);  // also on failure: the transaction side waits for it
  });
  tx_side.join();
  atomic_side.join();
  errors.check();
  EXPECT_LT(tx_lane, atomic_lane) << "the scenario needs j < i";
  ASSERT_FALSE(image.empty());
  pool->mark_crashed();
  pool.reset();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    ASSERT_TRUE(out);
  }

  auto re = pk::ObjectPool::open(path, "mt");
  EXPECT_TRUE(re->first(10).is_null()) << "uncommitted tx_alloc survived";
  EXPECT_FALSE(re->first(11).is_null()) << "published alloc_atomic lost";
  const pk::PoolReport report = pk::inspect(*re);
  EXPECT_TRUE(report.consistent) << pk::to_text(report);
  re.reset();
  fs::remove(path);
}

// After a power cut, a thread that has not reached a crash point yet must
// not write durable state.  Thread A's alloc_atomic is cut with its redo
// log published but unapplied, and its lane goes back to the pool; from
// then on every crash point throws.  A fresh thread B checks out the same
// lane (the lowest free one) and runs `second_op`: it must stop before it
// persists anything — neither its AllocHeader into A's block nor its log
// content over A's log.
void expect_op_after_cut_leaves_no_trace(
    const std::string& name,
    const std::function<void(pk::ObjectPool&, pk::ObjId)>& second_op) {
  struct CutRoot {
    pk::ObjId slot;
    pk::ObjId before;
  };
  const fs::path path = fs::temp_directory_path() /
                        ("crash-after-cut-" + name + "-" +
                         std::to_string(::getpid()));
  fs::remove(path);
  pk::PoolOptions opts;
  opts.track_shadow = true;
  auto pool = pk::ObjectPool::create(path, "cut", 8ull << 20, opts);
  auto* root = pool->direct(pool->root<CutRoot>());
  (void)pool->alloc_atomic(64, 13, &root->before);

  std::atomic<bool> power_off{false};
  pk::set_crash_hook([&power_off](std::string_view pt) {
    if (power_off.load() || pt == "redo:published") {
      power_off.store(true);
      throw pk::CrashInjected{std::string(pt)};
    }
  });
  std::thread a([&] {
    try {
      (void)pool->alloc_atomic(64, 11, &root->slot);
    } catch (const pk::CrashInjected&) {
    }
  });
  a.join();
  const pk::ObjId before = root->before;
  FirstError errors;
  std::thread b(errors.wrap([&] {
    try {
      second_op(*pool, before);
    } catch (const pk::CrashInjected&) {
    }
  }));
  b.join();
  pk::set_crash_hook({});
  errors.check();
  ASSERT_TRUE(power_off.load());

  const std::vector<std::byte> image =
      pool->region().crash_image(pk::CrashPolicy::DropUnflushed, 1);
  pool->mark_crashed();
  pool.reset();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    ASSERT_TRUE(out);
  }

  auto re = pk::ObjectPool::open(path, "cut");
  auto* r = re->direct(re->root<CutRoot>());
  const auto live = [&](std::uint32_t type) {
    int n = 0;
    for (pk::ObjId o = re->first(type); !o.is_null(); o = re->next(o, type))
      ++n;
    return n;
  };
  EXPECT_FALSE(r->slot.is_null()) << "A's published allocation was lost";
  EXPECT_EQ(live(11), 1) << "A's object";
  EXPECT_EQ(live(12), 0) << "B allocated after the power cut";
  EXPECT_EQ(live(13), 1) << "B freed after the power cut";
  if (!r->slot.is_null()) {
    EXPECT_EQ(re->type_of(r->slot), 11u);
  }
  const pk::PoolReport report = pk::inspect(*re);
  EXPECT_TRUE(report.consistent) << pk::to_text(report);
  re.reset();
  fs::remove(path);
}

TEST(CrashSimMT, AllocAfterPowerCutLeavesNoTrace) {
  expect_op_after_cut_leaves_no_trace(
      "alloc", [](pk::ObjectPool& p, pk::ObjId) {
        (void)p.alloc_atomic(64, 12);
      });
}

TEST(CrashSimMT, FreeAfterPowerCutLeavesNoTrace) {
  expect_op_after_cut_leaves_no_trace(
      "free", [](pk::ObjectPool& p, pk::ObjId before) {
        p.free_atomic(before);
      });
}

INSTANTIATE_TEST_SUITE_P(Policies, CrashPolicyTest,
                         ::testing::Values(pk::CrashPolicy::DropUnflushed,
                                           pk::CrashPolicy::RandomEvict),
                         [](const auto& info) {
                           return info.param ==
                                          pk::CrashPolicy::DropUnflushed
                                      ? "DropUnflushed"
                                      : "RandomEvict";
                         });

}  // namespace

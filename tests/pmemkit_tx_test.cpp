// Tests for undo-log transactions: commit/abort, tx alloc/free, nesting,
// log limits, fence budgets of the single-persist publish protocol, and
// concurrent transactions on separate lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"
#include "worker_errors.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

struct Root {
  std::uint64_t counter;
  pk::ObjId obj;
  std::uint64_t values[8];
};

class TxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("txtest-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove(path_);
    pool_ = pk::ObjectPool::create(path_, "tx", 32ull << 20);
    root_ = pool_->direct(pool_->root<Root>());
  }
  void TearDown() override {
    pool_.reset();
    fs::remove(path_);
  }

  fs::path path_;
  std::unique_ptr<pk::ObjectPool> pool_;
  Root* root_ = nullptr;
};

TEST_F(TxTest, CommitAppliesChanges) {
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, sizeof(root_->counter));
    root_->counter = 41;
  });
  EXPECT_EQ(root_->counter, 41u);
}

TEST_F(TxTest, ExceptionAbortsAndRestores) {
  root_->counter = 7;
  pool_->persist(&root_->counter, 8);
  EXPECT_THROW(pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, sizeof(root_->counter));
    root_->counter = 1000;
    throw std::runtime_error("bail");
  }),
               std::runtime_error);
  EXPECT_EQ(root_->counter, 7u);
}

TEST_F(TxTest, AbortRestoresMultipleRangesInOrder) {
  for (int i = 0; i < 8; ++i) root_->values[i] = i;
  pool_->persist(root_->values, sizeof(root_->values));
  EXPECT_THROW(pool_->run_tx([&] {
    // Overlapping snapshots of the same range: reverse-order undo must
    // still restore the original values.
    pool_->tx_add_range(root_->values, sizeof(root_->values));
    for (int i = 0; i < 8; ++i) root_->values[i] = 100 + i;
    pool_->tx_add_range(root_->values, sizeof(root_->values));
    for (int i = 0; i < 8; ++i) root_->values[i] = 200 + i;
    throw std::logic_error("abort");
  }),
               std::logic_error);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(root_->values[i], i);
}

TEST_F(TxTest, TxAllocIsVisibleAfterCommit) {
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->obj, sizeof(root_->obj));
    root_->obj = pool_->tx_alloc(128, 3);
  });
  EXPECT_FALSE(root_->obj.is_null());
  EXPECT_EQ(pool_->type_of(root_->obj), 3u);
}

TEST_F(TxTest, TxAllocRolledBackOnAbort) {
  EXPECT_THROW(pool_->run_tx([&] {
    (void)pool_->tx_alloc(128, 3);
    throw std::runtime_error("no");
  }),
               std::runtime_error);
  EXPECT_TRUE(pool_->first(3).is_null());  // nothing leaked
}

TEST_F(TxTest, TxFreeHappensAtCommitOnly) {
  const pk::ObjId oid = pool_->alloc_atomic(64, 4);
  EXPECT_THROW(pool_->run_tx([&] {
    pool_->tx_free(oid);
    throw std::runtime_error("abort");  // free must NOT happen
  }),
               std::runtime_error);
  EXPECT_EQ(pool_->first(4), oid);

  pool_->run_tx([&] { pool_->tx_free(oid); });
  EXPECT_TRUE(pool_->first(4).is_null());
}

TEST_F(TxTest, NestedTransactionsAreFlat) {
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, 8);
    root_->counter = 1;
    pool_->run_tx([&] {  // joins the outer tx
      pool_->tx_add_range(&root_->values[0], 8);
      root_->values[0] = 2;
    });
  });
  EXPECT_EQ(root_->counter, 1u);
  EXPECT_EQ(root_->values[0], 2u);

  // Inner exception aborts the WHOLE flat transaction.
  EXPECT_THROW(pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, 8);
    root_->counter = 99;
    pool_->run_tx([&] { throw std::runtime_error("inner"); });
  }),
               std::runtime_error);
  EXPECT_EQ(root_->counter, 1u);
}

TEST_F(TxTest, TxOpsOutsideTransactionThrow) {
  EXPECT_THROW(pool_->tx_add_range(&root_->counter, 8), pk::TxError);
  EXPECT_THROW((void)pool_->tx_alloc(64, 1), pk::TxError);
  EXPECT_THROW(pool_->tx_free(pk::ObjId{pool_->pool_id(), 64}), pk::TxError);
}

TEST_F(TxTest, AddRangeOutsidePoolThrows) {
  std::uint64_t local = 0;
  pool_->run_tx([&] {
    EXPECT_THROW(pool_->tx_add_range(&local, 8), pk::TxError);
  });
}

TEST_F(TxTest, UndoLogOverflowThrowsAndAborts) {
  const pk::ObjId big = pool_->alloc_atomic(1u << 20, 1, nullptr, true);
  auto* p = static_cast<std::uint8_t*>(pool_->direct(big));
  EXPECT_THROW(pool_->run_tx([&] {
    // A 1 MiB snapshot exceeds the per-lane undo log.
    pool_->tx_add_range(p, 1u << 20);
  }),
               pk::TxError);
  // Pool still usable.
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, 8);
    root_->counter = 5;
  });
  EXPECT_EQ(root_->counter, 5u);
}

TEST_F(TxTest, FreeingForeignOidThrows) {
  pool_->run_tx([&] {
    EXPECT_THROW(pool_->tx_free(pk::ObjId{0xdead, 64}), pk::TxError);
  });
}

TEST_F(TxTest, ConcurrentTransactionsOnSeparateLanes) {
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  // Each thread owns one slot of the root array.
  FirstError errors;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(errors.wrap([&, t] {
      for (int i = 0; i < kIters; ++i) {
        pool_->run_tx([&] {
          pool_->tx_add_range(&root_->values[t], 8);
          root_->values[t] += 1;
          const pk::ObjId tmp = pool_->tx_alloc(64, 100 + t);
          pool_->tx_free(tmp);
        });
      }
    }));
  }
  for (auto& th : threads) th.join();
  errors.check();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(root_->values[t], static_cast<std::uint64_t>(kIters));
  // All temporaries freed.
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(pool_->first(100 + t).is_null());
}

// Filling the undo log to the byte and then tx-allocating forces the
// LogOverflow out of append_entry AFTER the heap staged the allocation.
// The cancel path must return every transient claim: the regression mode
// was a huge-span reservation (or fresh-run chunk) leaking until close, so
// afterwards the heap must still satisfy a span covering ALL free chunks.
TEST_F(TxTest, UndoOverflowDuringTxAllocLeaksNoHeapState) {
  constexpr auto round16 = [](std::uint64_t n) {
    return (n + 15) & ~std::uint64_t{15};
  };
  const std::uint64_t hdr = sizeof(pk::UndoEntryHeader);
  // Snapshot source: 1 MiB of distinct ranges (coalescing must not kick in).
  const pk::ObjId src = pool_->alloc_atomic(1u << 20, 42, nullptr, true);
  auto* base = static_cast<std::byte*>(pool_->direct(src));

  const auto fill_log = [&] {
    std::uint64_t remaining = pk::kUndoLogBytes;
    std::uint64_t off = 0;
    // All quantities stay multiples of 16, so the log ends exactly full and
    // even a payload-free AllocAction entry (hdr bytes) cannot fit.
    ASSERT_EQ(pk::kUndoLogBytes % 16, 0u);
    while (remaining >= hdr + 16) {
      // remaining and hdr are multiples of 16, so len is too and
      // round16(len) == len: entries pack with no slack.
      const std::uint64_t len = std::min<std::uint64_t>(4080, remaining - hdr);
      ASSERT_EQ(round16(len), len);
      pool_->tx_add_range(base + off, len);
      off += len;
      remaining -= hdr + len;
    }
    ASSERT_LT(remaining, hdr);
  };

  const std::uint64_t free_before = pool_->stats().heap.free_chunks;

  // Huge-span variant: the staged allocation claims chunks transiently.
  EXPECT_THROW(pool_->run_tx([&] {
    fill_log();
    (void)pool_->tx_alloc(512u << 10, 7);  // 3 chunks; append must overflow
  }),
               pk::TxError);
  EXPECT_TRUE(pool_->first(7).is_null()) << "canceled alloc became visible";

  // Run-class variant: cancel must release the run's chunk lock, or the
  // next same-class allocation deadlocks.
  EXPECT_THROW(pool_->run_tx([&] {
    fill_log();
    (void)pool_->tx_alloc(64, 8);
  }),
               pk::TxError);
  const pk::ObjId small = pool_->alloc_atomic(64, 8);
  pool_->free_atomic(small);

  // Nothing persistent changed...
  EXPECT_EQ(pool_->stats().heap.free_chunks, free_before);
  // ...and nothing transient leaked: after releasing the snapshot source, a
  // span covering every free chunk must still be allocatable.
  pool_->free_atomic(src);
  const std::uint64_t all_free = pool_->stats().heap.free_chunks;
  const pk::ObjId whole = pool_->alloc_atomic(
      all_free * (256u << 10) - 16, 9);
  EXPECT_FALSE(whole.is_null());
  pool_->free_atomic(whole);
}

// Re-snapshotting a range already covered by an earlier snapshot must not
// consume more undo space: thousands of add_range calls on the same word
// would otherwise overflow the lane log.
TEST_F(TxTest, AddRangeCoalescesCoveredRanges) {
  for (int i = 0; i < 8; ++i) root_->values[i] = i;
  pool_->persist(root_->values, sizeof(root_->values));

  pool_->run_tx([&] {
    pool_->tx_add_range(root_->values, sizeof(root_->values));
    // ~10k re-adds of covered (sub)ranges: would need ~1 MiB of undo log
    // without coalescing (kUndoLogBytes is ~63 KiB).
    for (int i = 0; i < 10000; ++i) {
      pool_->tx_add_range(root_->values, sizeof(root_->values));
      pool_->tx_add_range(&root_->values[i % 8], 8);
      root_->values[i % 8] = 1000 + i;
    }
  });

  // Abort must still restore from the one real snapshot.
  EXPECT_THROW(pool_->run_tx([&] {
    pool_->tx_add_range(root_->values, sizeof(root_->values));
    for (int i = 0; i < 8; ++i) {
      pool_->tx_add_range(&root_->values[i], 8);  // covered: skipped
      root_->values[i] = 7777;
    }
    throw std::runtime_error("abort");
  }),
               std::runtime_error);
  // Last committed write to slot i was iteration 9992+i.
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(root_->values[i], 1000u + 9992 + i) << "i=" << i;
}

// The protocol's headline invariant: publishing a snapshot costs exactly
// one fenced persist (the entry is self-validating; there is no tail bump),
// and a covered re-add costs none.
TEST_F(TxTest, SnapshotPublishCostsExactlyOneFence) {
  pool_->run_tx([&] {
    const auto before = pk::PersistentRegion::thread_drain_count();
    pool_->tx_add_range(&root_->values[0], 8);
    EXPECT_EQ(pk::PersistentRegion::thread_drain_count() - before, 1u);
    root_->values[0] = 1;

    const auto covered = pk::PersistentRegion::thread_drain_count();
    pool_->tx_add_range(&root_->values[0], 8);  // fully covered
    EXPECT_EQ(pk::PersistentRegion::thread_drain_count() - covered, 0u);

    // Several gaps still publish under a single fence: [1] and [3] are
    // covered, so adding values[0..5) leaves three holes in one call.
    pool_->tx_add_range(&root_->values[1], 8);
    pool_->tx_add_range(&root_->values[3], 8);
    const auto gaps = pk::PersistentRegion::thread_drain_count();
    pool_->tx_add_range(&root_->values[0], 5 * 8);
    EXPECT_EQ(pk::PersistentRegion::thread_drain_count() - gaps, 1u);
  });
}

// Whole-transaction fence budget: begin is one fenced line write (gen +
// Active together), commit is flush-user + commit marker + single-fence
// retire.
TEST_F(TxTest, EmptyTransactionCostsFourFences) {
  const auto before = pk::PersistentRegion::thread_drain_count();
  pool_->run_tx([] {});
  EXPECT_EQ(pk::PersistentRegion::thread_drain_count() - before, 4u);
}

// The compiled-in benchmark baseline pays the version-1 tail bump again.
TEST(TxReference, TwoPersistReferencePublishesWithTwoFences) {
  const fs::path path = fs::temp_directory_path() /
                        ("txtest-ref-" + std::to_string(::getpid()));
  fs::remove(path);
  pk::PoolOptions opts;
  opts.tx_publish = pk::TxPublish::TwoPersistReference;
  auto pool = pk::ObjectPool::create(path, "tx", 32ull << 20, opts);
  auto* root = pool->direct(pool->root<Root>());

  pool->run_tx([&] {
    const auto before = pk::PersistentRegion::thread_drain_count();
    pool->tx_add_range(&root->counter, 8);
    EXPECT_EQ(pk::PersistentRegion::thread_drain_count() - before, 2u);
    root->counter = 9;
  });
  EXPECT_EQ(root->counter, 9u);

  // Abort and reopen behave identically under either protocol.
  EXPECT_THROW(pool->run_tx([&] {
    pool->tx_add_range(&root->counter, 8);
    root->counter = 77;
    throw std::runtime_error("abort");
  }),
               std::runtime_error);
  EXPECT_EQ(root->counter, 9u);
  pool.reset();
  pool = pk::ObjectPool::open(path, "tx");
  EXPECT_EQ(pool->direct(pool->root<Root>())->counter, 9u);
  pool.reset();
  fs::remove(path);
}

// Partial overlaps log only the uncovered gaps.  Entry sizes are visible
// through introspection (busy-lane undo bytes = published prefix).
TEST_F(TxTest, PartialOverlapSnapshotsOnlyTheGaps) {
  const std::uint64_t entry = sizeof(pk::UndoEntryHeader);
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->values[0], 32);  // 32-byte payload
    const auto r1 = pk::inspect(*pool_);
    ASSERT_EQ(r1.busy_lanes.size(), 1u);
    EXPECT_EQ(r1.busy_lanes[0].undo_bytes, entry + 32);

    // [16, 64) overlaps [0, 32): only [32, 64) may be logged.
    pool_->tx_add_range(&root_->values[2], 48);
    const auto r2 = pk::inspect(*pool_);
    EXPECT_EQ(r2.busy_lanes[0].undo_bytes, 2 * (entry + 32));
  });
}

// A range bridging several covered holes restores exactly on abort.
TEST_F(TxTest, BridgingRangeRestoresAllGapsOnAbort) {
  for (int i = 0; i < 8; ++i) root_->values[i] = 10 + i;
  pool_->persist(root_->values, sizeof(root_->values));
  EXPECT_THROW(pool_->run_tx([&] {
    pool_->tx_add_range(&root_->values[0], 8);
    pool_->tx_add_range(&root_->values[2], 8);
    pool_->tx_add_range(&root_->values[5], 8);
    root_->values[0] = 100;
    root_->values[2] = 102;
    root_->values[5] = 105;
    // Bridges all three islands: gaps [1], [3..4], [6..7] get entries.
    pool_->tx_add_range(root_->values, sizeof(root_->values));
    for (int i = 0; i < 8; ++i) root_->values[i] = 200 + i;
    throw std::runtime_error("abort");
  }),
               std::runtime_error);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(root_->values[i], 10 + i) << "i=" << i;
}

// Regression: `p + len` overflowed the bounds check for huge lengths (UB,
// and a wrapped pointer could slip past it); the check now compares
// offsets/sizes.
TEST_F(TxTest, HugeLenCannotWrapTheBoundsCheck) {
  pool_->run_tx([&] {
    EXPECT_THROW(pool_->tx_add_range(root_->values, SIZE_MAX), pk::TxError);
    EXPECT_THROW(pool_->tx_add_range(root_->values, SIZE_MAX - 7), pk::TxError);
    EXPECT_THROW(
        pool_->current_tx()->add_fresh_range(root_->values, SIZE_MAX),
        pk::TxError);
    // The pool stays usable inside the same transaction.
    pool_->tx_add_range(&root_->counter, 8);
    root_->counter = 3;
  });
  EXPECT_EQ(root_->counter, 3u);
}

TEST_F(TxTest, CommittedStateSurvivesReopen) {
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, 8);
    root_->counter = 77;
  });
  pool_.reset();
  pool_ = pk::ObjectPool::open(path_, "tx");
  EXPECT_EQ(pool_->direct(pool_->root<Root>())->counter, 77u);
}

// ---------------------------------------------------------------------------
// LaneSession: a thread pins one undo lane for a stretch of transactions
// (cxlpmemd's shard workers hold one for their lifetime), so per-tx lane
// checkout skips the shared mutex.
// ---------------------------------------------------------------------------

TEST_F(TxTest, LaneSessionPinsTheLaneAcrossTransactions) {
  const pk::ObjectPool::LaneSession session(*pool_);
  std::uint32_t first = UINT32_MAX, second = UINT32_MAX;
  pool_->run_tx([&] { first = pool_->current_tx()->lane(); });
  pool_->run_tx([&] { second = pool_->current_tx()->lane(); });
  EXPECT_EQ(first, session.lane());
  EXPECT_EQ(second, session.lane());
}

TEST_F(TxTest, DuplicateLaneSessionOnSamePoolThrows) {
  const pk::ObjectPool::LaneSession session(*pool_);
  EXPECT_THROW(pk::ObjectPool::LaneSession dup(*pool_), pk::TxError);
}

TEST_F(TxTest, LaneSessionReleasesItsLaneOnDestruction) {
  // More sequential sessions than the pool has lanes: only possible if
  // every destroyed session returns its lane to the free pool (a leak
  // would exhaust the 64 lanes and deadlock — caught by the test timeout).
  for (std::size_t i = 0; i < pk::kLaneCount + 8; ++i) {
    const pk::ObjectPool::LaneSession session(*pool_);
    pool_->run_tx([&] {
      pool_->tx_add_range(&root_->counter, 8);
      root_->counter += 1;
    });
  }
  EXPECT_EQ(root_->counter, pk::kLaneCount + 8);
}

TEST_F(TxTest, ConcurrentLaneSessionsGetDistinctLanes) {
  constexpr int kThreads = 8;
  std::vector<std::uint32_t> lane(kThreads, UINT32_MAX);
  FirstError errors;
  std::vector<std::thread> threads;
  std::atomic<int> armed{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(errors.wrap([&, t] {
      const pk::ObjectPool::LaneSession session(*pool_);
      lane[t] = session.lane();
      armed.fetch_add(1);
      // Hold the session until every thread has one: distinctness is only
      // meaningful while the sessions coexist.
      while (armed.load() < kThreads && !errors.any())
        std::this_thread::yield();
      pool_->run_tx([&] {
        pool_->tx_add_range(&root_->values[t], 8);
        root_->values[t] = session.lane() + 1;
      });
    }));
  }
  for (auto& th : threads) th.join();
  errors.check();
  std::sort(lane.begin(), lane.end());
  EXPECT_EQ(std::adjacent_find(lane.begin(), lane.end()), lane.end())
      << "two concurrent sessions shared a lane";
}

// A transaction already on a session lane must NOT release it mid-session:
// the release at session destruction is the only one.
TEST_F(TxTest, SessionLaneSurvivesAnAbortedTransaction) {
  const pk::ObjectPool::LaneSession session(*pool_);
  EXPECT_THROW(pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, 8);
    root_->counter = 99;
    throw std::runtime_error("abort");
  }),
               std::runtime_error);
  EXPECT_EQ(root_->counter, 0u);
  // The lane is still pinned and still works.
  std::uint32_t l = UINT32_MAX;
  pool_->run_tx([&] { l = pool_->current_tx()->lane(); });
  EXPECT_EQ(l, session.lane());
}

}  // namespace

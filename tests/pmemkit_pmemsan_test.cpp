// Seeded-violation tests for PmemSan, the runtime persistency sanitizer:
// one deliberately buggy micro-program per rule, asserting the right rule
// id fires at the right offset — and that clean code fires nothing at all,
// which is what pins the library's own flush discipline (the pmemcheck CI
// job runs the whole suite this way).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "pmemkit/pmemkit.hpp"
#include "pmemkit/pmemsan.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

struct Root {
  std::uint64_t counter;
  std::uint64_t values[8];
};

class PmemSanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("pmemsan-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove(path_);
    pk::PoolOptions options;
    options.pmemcheck = true;
    pool_ = pk::ObjectPool::create(path_, "san", 32ull << 20, options);
    ASSERT_NE(pool_->pmemsan(), nullptr);
    // CountSink: violations are tallied, not thrown, so each test can
    // assert exact rule counts.  shared_ptr — the sink outlives the pool,
    // so close-time (R5) findings stay readable after reset().
    sink_ = std::make_shared<pk::CountSink>();
    pool_->pmemsan()->set_sink(sink_);
    root_ = pool_->direct(pool_->root<Root>());
  }
  void TearDown() override {
    pool_.reset();
    fs::remove(path_);
  }

  [[nodiscard]] std::uint64_t off_of(const void* p) {
    return pool_->region().offset_of(p);
  }

  fs::path path_;
  std::unique_ptr<pk::ObjectPool> pool_;
  std::shared_ptr<pk::CountSink> sink_;
  Root* root_ = nullptr;
};

// --- R1: unlogged store inside a transaction -------------------------------

TEST_F(PmemSanTest, R1_UnloggedStoreInsideTx) {
  pool_->run_tx([&] {
    // The classic missing-snapshot bug: mutate pool bytes without
    // tx_add_range.  note_store is the store-visibility seam the field
    // wrappers use; calling it directly models an instrumented raw store.
    root_->counter = 41;
    pool_->region().note_store(&root_->counter, sizeof(root_->counter));
  });
  EXPECT_EQ(sink_->count(pk::SanRule::UnloggedStore), 1u);
  EXPECT_EQ(sink_->total(), 1u);
  const auto kept = sink_->violations();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].off, off_of(&root_->counter));
  EXPECT_EQ(kept[0].len, sizeof(root_->counter));
  EXPECT_NE(kept[0].format().find("R1 unlogged-store"), std::string::npos);

  pool_->persist(&root_->counter, sizeof(root_->counter));  // leave durable
}

TEST_F(PmemSanTest, R1_CoveredStoreIsClean) {
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, sizeof(root_->counter));
    root_->counter = 42;
  });
  EXPECT_EQ(sink_->total(), 0u);
}

TEST_F(PmemSanTest, R1_StoreOutsideTxIsNotRule1) {
  // The same uncovered store with no transaction open: not an R1 (nothing
  // to undo-log against); it becomes R5 dirt if never flushed, so flush it.
  root_->counter = 43;
  pool_->region().note_store(&root_->counter, sizeof(root_->counter));
  pool_->persist(&root_->counter, sizeof(root_->counter));
  EXPECT_EQ(sink_->total(), 0u);
}

// --- R2: commit record published over non-durable covered lines ------------

TEST_F(PmemSanTest, R2_UnflushedCommitDetected) {
  // Driven through the event feed: a hand-rolled transaction protocol that
  // covers a range, stores to it, and publishes its commit record without
  // ever flushing the covered line — the shaved-flush bug PmemSan exists
  // to catch (the real Transaction::commit flushes before publishing).
  pk::PmemSan* san = pool_->pmemsan();
  const std::uint64_t off = off_of(&root_->values[0]);
  san->tx_begin(7);
  san->tx_cover(7, off, 64);
  root_->values[0] = 0xfeedface;  // the store the commit record would lose
  san->on_store(off, 64, pk::PmemSan::StoreOrigin::User);
  san->tx_commit_publish(7);
  san->tx_end(7);

  EXPECT_EQ(sink_->count(pk::SanRule::UnflushedCommit), 1u);
  EXPECT_EQ(sink_->total(), 1u);
  const auto kept = sink_->violations();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].rule, pk::SanRule::UnflushedCommit);
  // Reported per cache line.
  EXPECT_EQ(kept[0].off, off / 64 * 64);

  pool_->persist(&root_->values[0], 64);  // leave durable
}

TEST_F(PmemSanTest, R2_FlushedAndFencedCommitIsClean) {
  pk::PmemSan* san = pool_->pmemsan();
  const std::uint64_t off = off_of(&root_->values[0]);
  san->tx_begin(7);
  san->tx_cover(7, off, 64);
  san->on_store(off, 64, pk::PmemSan::StoreOrigin::User);
  pool_->persist(&root_->values[0], 64);  // flush + fence before publishing
  san->tx_commit_publish(7);
  san->tx_end(7);
  EXPECT_EQ(sink_->total(), 0u);
}

// --- R3: redundant flush ----------------------------------------------------

TEST_F(PmemSanTest, R3_RedundantFlushOfCleanLine) {
  root_->counter = 7;
  pool_->persist(&root_->counter, sizeof(root_->counter));
  EXPECT_EQ(sink_->total(), 0u);

  // Flush again with no store in between: pure write-back waste.
  pool_->flush(&root_->counter, sizeof(root_->counter));
  pool_->drain();
  EXPECT_EQ(sink_->count(pk::SanRule::RedundantFlush), 1u);
  EXPECT_EQ(sink_->total(), 1u);
  const auto kept = sink_->violations();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].off, off_of(&root_->counter) / 64 * 64);
}

TEST_F(PmemSanTest, R3_RedirtiedFlushIsClean) {
  root_->counter = 8;
  pool_->persist(&root_->counter, sizeof(root_->counter));
  root_->counter = 9;  // raw re-store: the content heuristic spots it
  pool_->persist(&root_->counter, sizeof(root_->counter));
  EXPECT_EQ(sink_->total(), 0u);
}

// --- R4: flush of a line no store ever touched ------------------------------

TEST_F(PmemSanTest, R4_FlushNeverStored) {
  // The tail of the pool: allocated to no one, never written by anyone.
  const std::uint64_t off = pool_->size() - 64;
  pool_->flush(pool_->region().base() + off, 64);
  pool_->drain();
  EXPECT_EQ(sink_->count(pk::SanRule::FlushNeverStored), 1u);
  EXPECT_EQ(sink_->total(), 1u);
  const auto kept = sink_->violations();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].off, off);
  EXPECT_NE(kept[0].format().find("flush-never-stored"), std::string::npos);
}

// --- R5: dirty at close / verify --------------------------------------------

TEST_F(PmemSanTest, R5_AnnotatedStoreNeverFlushed) {
  root_->counter = 5;
  pool_->region().note_store(&root_->counter, sizeof(root_->counter));
  EXPECT_EQ(pool_->pmemsan()->verify(), 1u);
  EXPECT_EQ(sink_->count(pk::SanRule::DirtyAtClose), 1u);
  const auto kept = sink_->violations();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].off, off_of(&root_->counter) / 64 * 64);
  EXPECT_NE(kept[0].message.find("stored but never flushed"),
            std::string::npos);

  pool_->persist(&root_->counter, sizeof(root_->counter));
  EXPECT_EQ(pool_->pmemsan()->verify(), 0u);  // durable now: scan is clean
}

TEST_F(PmemSanTest, R5_RawStoreNeverFlushed) {
  // A store through a direct() pointer with no annotation at all: only the
  // live-vs-durable content comparison can see it.
  root_->values[3] = 0xDEAD;
  EXPECT_GE(pool_->pmemsan()->verify(), 1u);
  EXPECT_GE(sink_->count(pk::SanRule::DirtyAtClose), 1u);
  const auto kept = sink_->violations();
  ASSERT_GE(kept.size(), 1u);
  EXPECT_NE(kept[0].message.find("raw-stored"), std::string::npos);
  pool_->persist(&root_->values[3], sizeof(root_->values[3]));
}

TEST_F(PmemSanTest, R5_FiresAtPoolClose) {
  root_->counter = 11;
  pool_->region().note_store(&root_->counter, sizeof(root_->counter));
  pool_.reset();  // close_check reports through the surviving CountSink
  EXPECT_EQ(sink_->count(pk::SanRule::DirtyAtClose), 1u);
}

// --- R6: persist narrower than the store it publishes -----------------------

TEST_F(PmemSanTest, R6_PersistTooSmall) {
  const pk::ObjId oid = pool_->alloc_atomic(256, 9, nullptr, true);
  auto* p = static_cast<std::byte*>(pool_->direct(oid));
  std::memset(p, 0xAB, 128);
  pool_->region().note_store(p, 128);
  pool_->persist(p, 64);  // publishes half the store: a torn publish
  EXPECT_EQ(sink_->count(pk::SanRule::PersistTooSmall), 1u);
  EXPECT_EQ(sink_->total(), 1u);
  const auto kept = sink_->violations();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].off, off_of(p));
  EXPECT_EQ(kept[0].len, 64u);

  // Re-announce and persist the full range to leave the pool clean.
  pool_->region().note_store(p, 128);
  pool_->persist(p, 128);
  EXPECT_EQ(pool_->pmemsan()->verify(), 0u);
}

TEST_F(PmemSanTest, R6_FullWidthPersistIsClean) {
  const pk::ObjId oid = pool_->alloc_atomic(256, 9, nullptr, true);
  auto* p = static_cast<std::byte*>(pool_->direct(oid));
  std::memset(p, 0xCD, 128);
  pool_->region().note_store(p, 128);
  pool_->persist(p, 128);
  EXPECT_EQ(sink_->total(), 0u);
}

// --- sinks & error taxonomy -------------------------------------------------

TEST_F(PmemSanTest, ThrowSinkRaisesTypedPoolError) {
  pool_->pmemsan()->set_sink(std::make_shared<pk::ThrowSink>());
  root_->counter = 12;
  pool_->persist(&root_->counter, sizeof(root_->counter));
  try {
    pool_->flush(&root_->counter, sizeof(root_->counter));  // redundant
    FAIL() << "redundant flush did not throw";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::PersistencyViolation);
    EXPECT_NE(std::string(e.what()).find("redundant-flush"),
              std::string::npos);
  }
  pool_->pmemsan()->set_sink(sink_);  // back to counting for close_check
}

TEST_F(PmemSanTest, ViolationCarriesPoolProvenance) {
  root_->counter = 13;
  pool_->persist(&root_->counter, sizeof(root_->counter));
  pool_->flush(&root_->counter, sizeof(root_->counter));
  pool_->drain();
  const auto kept = sink_->violations();
  ASSERT_GE(kept.size(), 1u);
  EXPECT_EQ(kept[0].pool, path_.filename().string());
  EXPECT_NE(kept[0].format().find("pmemsan[" + path_.filename().string()),
            std::string::npos);
}

// --- clean workloads fire nothing -------------------------------------------
// This is the regression pin for every library-side finding the sanitizer
// surfaced (the redo commit's over-wide persist above all): a full mixed
// workload — transactions, aborts, atomic alloc/free, deferred frees —
// followed by a clean close must count zero violations.

TEST_F(PmemSanTest, CleanMixedWorkloadFiresNothing) {
  for (int round = 0; round < 4; ++round) {
    pool_->run_tx([&] {
      pool_->tx_add_range(root_->values, sizeof(root_->values));
      for (int i = 0; i < 8; ++i) root_->values[i] = round * 100 + i;
      pool_->tx_add_range(&root_->counter, sizeof(root_->counter));
      root_->counter = round;
    });
  }
  // Abort path: rollback restores snapshots with its own flush discipline.
  EXPECT_THROW(pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, sizeof(root_->counter));
    root_->counter = 9999;
    throw std::runtime_error("abort");
  }),
               std::runtime_error);

  // Transactional alloc/free and the atomic (redo-logged) API.
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->values[0], 8);
    const pk::ObjId tmp = pool_->tx_alloc(512, 21);
    root_->values[0] = tmp.off;
    pool_->tx_free(tmp);
  });
  const pk::ObjId big = pool_->alloc_atomic(4096, 22, nullptr, true);
  pool_->free_atomic(big);

  EXPECT_EQ(pool_->pmemsan()->verify(), 0u);
  pool_.reset();  // close_check: nothing may be dirty at a clean shutdown
  EXPECT_EQ(sink_->total(), 0u);
}

TEST_F(PmemSanTest, CleanReopenRoundTripFiresNothing) {
  root_ = nullptr;
  pool_.reset();
  EXPECT_EQ(sink_->total(), 0u);

  pk::PoolOptions options;
  options.pmemcheck = true;
  pool_ = pk::ObjectPool::open(path_, "san", options);
  pool_->pmemsan()->set_sink(sink_);
  root_ = pool_->direct(pool_->root<Root>());
  pool_->run_tx([&] {
    pool_->tx_add_range(&root_->counter, sizeof(root_->counter));
    root_->counter = 77;
  });
  pool_.reset();
  EXPECT_EQ(sink_->total(), 0u);
}

// --- per-thread attribution -------------------------------------------------
// Lanes on different threads share cache lines (heap chunk state, adjacent
// small objects).  Each case below drives two threads through one line L
// in a fixed order; one persistent worker thread per role keeps thread
// identity stable while the steps run one at a time.

/// A thread that runs the steps handed to it, synchronously: run() returns
/// once the step finished on the worker (rethrowing what it threw).
class Worker {
 public:
  Worker() : thread_([this] { loop(); }) {}
  ~Worker() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void run(std::function<void()> step) {
    std::unique_lock<std::mutex> lock(mu_);
    step_ = std::move(step);
    cv_.notify_all();
    cv_.wait(lock, [&] { return !step_; });
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return quit_ || step_; });
      if (!step_) return;
      try {
        step_();
      } catch (...) {
        error_ = std::current_exception();
      }
      step_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> step_;
  std::exception_ptr error_;
  bool quit_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

class PmemSanThreadsTest : public PmemSanTest {
 protected:
  void SetUp() override {
    PmemSanTest::SetUp();
    const pk::ObjId oid = pool_->alloc_atomic(256, 9, nullptr, true);
    auto* obj = static_cast<std::byte*>(pool_->direct(oid));
    // Two words on one cache line inside the object.
    auto* line = obj + (64 - off_of(obj) % 64) % 64;
    word_a_ = reinterpret_cast<std::uint64_t*>(line);
    word_b_ = reinterpret_cast<std::uint64_t*>(line + 8);
  }

  /// An announced infrastructure store, as pmemkit's own metadata writes.
  void store(std::uint64_t* word, std::uint64_t value) {
    *word = value;
    pool_->region().note_store_infra(word, sizeof(*word));
  }
  void flush(std::uint64_t* word) { pool_->flush(word, sizeof(*word)); }

  std::uint64_t* word_a_ = nullptr;
  std::uint64_t* word_b_ = nullptr;
  Worker a_;
  Worker b_;
};

// (a) B stores L; A stores, flushes and fences L; B flushes L.  B's flush
// is the one B owes for its own store — another thread's fence does not
// make it redundant (free_atomic's redo apply on shared chunk-state lines).
TEST_F(PmemSanThreadsTest, OtherThreadsFenceLeavesMyFlushNeeded) {
  b_.run([&] { store(word_b_, 1); });
  a_.run([&] {
    store(word_a_, 2);
    flush(word_a_);
    pool_->drain();
  });
  b_.run([&] {
    flush(word_b_);
    pool_->drain();
  });
  EXPECT_EQ(sink_->total(), 0u);
  EXPECT_EQ(pool_->pmemsan()->verify(), 0u);
}

// (b) A flushes L; B flushes and fences L; A flushes L again before its
// own fence (Transaction::commit's flush loop over two covered ranges on
// one line).  A has not fenced, so its second flush is not redundant.
TEST_F(PmemSanThreadsTest, ReflushBeforeOwnFenceIsNotRedundant) {
  a_.run([&] {
    store(word_a_, 3);
    flush(word_a_);
  });
  b_.run([&] {
    store(word_b_, 4);
    flush(word_b_);
    pool_->drain();
  });
  a_.run([&] {
    flush(word_a_);
    pool_->drain();
  });
  EXPECT_EQ(sink_->total(), 0u);
  EXPECT_EQ(pool_->pmemsan()->verify(), 0u);
}

// (c) A flushes its covered line; B stores to the same line; A fences and
// publishes.  B's store must not cancel A's pending flush: the fence makes
// A's covered bytes durable, so the commit record is sound.
TEST_F(PmemSanThreadsTest, NeighbourStoreKeepsMyFlushPending) {
  pk::PmemSan* san = pool_->pmemsan();
  const std::uint64_t off = off_of(word_a_);
  a_.run([&] {
    san->tx_begin(7);
    san->tx_cover(7, off, sizeof(*word_a_));
    *word_a_ = 5;
    san->on_store(off, sizeof(*word_a_), pk::PmemSan::StoreOrigin::User);
    flush(word_a_);
  });
  b_.run([&] { store(word_b_, 6); });
  a_.run([&] {
    pool_->drain();
    san->tx_commit_publish(7);
    san->tx_end(7);
  });
  EXPECT_EQ(sink_->total(), 0u);
  b_.run([&] {
    flush(word_b_);
    pool_->drain();
  });
  EXPECT_EQ(sink_->total(), 0u);
  EXPECT_EQ(pool_->pmemsan()->verify(), 0u);
}

// (d) One thread covers L, stores, flushes, stores again, fences and
// publishes.  The fence carried the second store along, but only by luck:
// the commit record went out over a store its thread never flushed — R2.
TEST_F(PmemSanThreadsTest, OwnStoreAfterFlushIsUnflushedCommit) {
  pk::PmemSan* san = pool_->pmemsan();
  const std::uint64_t off = off_of(word_a_);
  a_.run([&] {
    san->tx_begin(7);
    san->tx_cover(7, off, sizeof(*word_a_));
    *word_a_ = 7;
    san->on_store(off, sizeof(*word_a_), pk::PmemSan::StoreOrigin::User);
    flush(word_a_);
    *word_a_ = 8;
    san->on_store(off, sizeof(*word_a_), pk::PmemSan::StoreOrigin::User);
    pool_->drain();
    san->tx_commit_publish(7);
    san->tx_end(7);
  });
  EXPECT_EQ(sink_->count(pk::SanRule::UnflushedCommit), 1u);
  EXPECT_EQ(sink_->total(), 1u);
  const auto kept = sink_->violations();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].off, off / 64 * 64);

  a_.run([&] { pool_->persist(word_a_, sizeof(*word_a_)); });  // leave durable
  EXPECT_EQ(pool_->pmemsan()->verify(), 0u);
}

}  // namespace

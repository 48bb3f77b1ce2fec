// Recovery-focused tests: redo-log recovery states, lane replay
// idempotency, and a randomized transaction-sequence crash property sweep
// (the pmemkit equivalent of a fuzzer with an oracle).
#include <gtest/gtest.h>

#include <filesystem>
#include <random>

#include "pmemkit/pmemkit.hpp"
#include "pmemkit/redo.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

fs::path unique_path(const std::string& tag) {
  return fs::temp_directory_path() /
         ("rectest-" + std::to_string(::getpid()) + "-" + tag);
}

// --- redo log unit behaviour ------------------------------------------------

TEST(RedoRecovery, UnpublishedLogIsDiscarded) {
  const auto path = unique_path("redo-unpub");
  fs::remove(path);
  pk::MappedFile file = pk::MappedFile::create(path, 1 << 20);
  pk::PersistentRegion region(std::move(file));
  auto* log = reinterpret_cast<pk::RedoLog*>(region.base() + 4096);

  // Stage without commit: content present, valid flag still 0.
  pk::RedoSession session(region, *log);
  session.stage(0, 0xdeadbeef);
  EXPECT_FALSE(pk::redo_recover(region, *log));
  std::uint64_t word = 0;
  std::memcpy(&word, region.base(), 8);
  EXPECT_EQ(word, 0u);
  fs::remove(path);
}

TEST(RedoRecovery, PublishedLogReappliesAndRetires) {
  const auto path = unique_path("redo-pub");
  fs::remove(path);
  pk::MappedFile file = pk::MappedFile::create(path, 1 << 20);
  pk::PersistentRegion region(std::move(file));
  auto* log = reinterpret_cast<pk::RedoLog*>(region.base() + 4096);

  pk::RedoSession session(region, *log);
  session.stage(0, 0x1111);
  session.stage(8, 0x2222);
  session.commit();
  // Simulate "applied but crash before retire": re-publish manually.
  log->valid = 1;
  EXPECT_TRUE(pk::redo_recover(region, *log));
  EXPECT_EQ(log->valid, 0u);
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, region.base(), 8);
  std::memcpy(&b, region.base() + 8, 8);
  EXPECT_EQ(a, 0x1111u);
  EXPECT_EQ(b, 0x2222u);
  // Idempotent: recovering again is a no-op.
  EXPECT_FALSE(pk::redo_recover(region, *log));
  fs::remove(path);
}

TEST(RedoRecovery, CorruptChecksumIsRejected) {
  const auto path = unique_path("redo-corrupt");
  fs::remove(path);
  pk::MappedFile file = pk::MappedFile::create(path, 1 << 20);
  pk::PersistentRegion region(std::move(file));
  auto* log = reinterpret_cast<pk::RedoLog*>(region.base() + 4096);

  log->count = 1;
  log->cells[0] = {0, 0x3333};
  log->checksum = 0xbad;  // torn publish
  log->valid = 1;
  EXPECT_FALSE(pk::redo_recover(region, *log));
  EXPECT_EQ(log->valid, 0u);  // cleared, op never happened
  std::uint64_t word = 0;
  std::memcpy(&word, region.base(), 8);
  EXPECT_EQ(word, 0u);
  fs::remove(path);
}

TEST(RedoSessionLimits, OverflowAndBoundsChecked) {
  const auto path = unique_path("redo-limits");
  fs::remove(path);
  pk::MappedFile file = pk::MappedFile::create(path, 1 << 20);
  pk::PersistentRegion region(std::move(file));
  auto* log = reinterpret_cast<pk::RedoLog*>(region.base() + 4096);

  pk::RedoSession session(region, *log);
  for (std::size_t i = 0; i < pk::kRedoCapacity; ++i) session.stage(i * 8, i);
  EXPECT_THROW(session.stage(0, 0), pk::TxError);
  pk::RedoSession session2(region, *log);
  EXPECT_THROW(session2.stage(1 << 20, 0), pk::TxError);  // outside pool
  fs::remove(path);
}

// --- randomized transaction-sequence crash property --------------------------
//
// A scripted sequence of transactions (deterministic per seed) runs with a
// crash injected at point k.  The oracle: after recovery, the root's state
// must equal the state after a PREFIX of committed transactions — i.e. some
// i in [0, n] with all tx j < i applied and none after.

struct Root {
  std::uint64_t applied;  // count of committed transactions
  std::uint64_t sum;      // checksum the transactions maintain
  pk::ObjId blob;         // reallocated by some transactions
};

/// Per-transaction script parameters; drawn with a fixed number of rng
/// calls so the oracle can replay the stream exactly.
struct TxParams {
  std::uint64_t delta;
  bool realloc_blob;
  std::uint64_t blob_size;
};

TxParams draw(std::mt19937& rng) {
  TxParams p;
  p.delta = rng() % 1000;
  p.realloc_blob = rng() % 2 == 0;
  p.blob_size = 64 + (rng() % 512);
  return p;
}

void run_script(pk::ObjectPool& pool, std::uint32_t seed, int txs) {
  std::mt19937 rng(seed);
  auto* r = pool.direct(pool.root<Root>());
  for (int i = 0; i < txs; ++i) {
    const TxParams p = draw(rng);
    pool.run_tx([&] {
      pool.tx_add_range(r, sizeof(Root));
      if (p.realloc_blob) {
        if (!r->blob.is_null()) pool.tx_free(r->blob);
        r->blob = pool.tx_alloc(p.blob_size, 42);
      }
      r->applied += 1;
      r->sum += p.delta * r->applied;
    });
  }
}

/// Replays the script arithmetic to compute the expected (applied, sum)
/// after `prefix` committed transactions.
std::pair<std::uint64_t, std::uint64_t> expected_after(std::uint32_t seed,
                                                       int prefix) {
  std::mt19937 rng(seed);
  std::uint64_t applied = 0, sum = 0;
  for (int i = 0; i < prefix; ++i) {
    const TxParams p = draw(rng);
    applied += 1;
    sum += p.delta * applied;
  }
  return {applied, sum};
}

class TxSequenceCrash : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TxSequenceCrash, RecoversToACommittedPrefix) {
  const std::uint32_t seed = GetParam();
  constexpr int kTxs = 6;
  pk::CrashSimulator::Config cfg;
  cfg.pool_path = unique_path("seq-" + std::to_string(seed));
  cfg.policy = seed % 2 == 0 ? pk::CrashPolicy::DropUnflushed
                             : pk::CrashPolicy::RandomEvict;
  cfg.seed = seed;

  const auto setup = [](pk::ObjectPool& p) { (void)p.root<Root>(); };
  const auto scenario = [seed](pk::ObjectPool& p) {
    run_script(p, seed, kTxs);
  };
  const auto verify = [seed, kTxs](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    ASSERT_LE(r->applied, kTxs);
    const auto [applied, sum] =
        expected_after(seed, static_cast<int>(r->applied));
    ASSERT_EQ(r->applied, applied);
    ASSERT_EQ(r->sum, sum) << "state is not a committed prefix";
    // At most one live blob regardless of where the crash hit.
    int blobs = 0;
    for (pk::ObjId o = p.first(42); !o.is_null(); o = p.next(o, 42)) ++blobs;
    ASSERT_LE(blobs, 1) << "leaked blob allocations";
    if (!r->blob.is_null()) {
      ASSERT_EQ(blobs, 1);
    }
  };

  const std::size_t points =
      pk::CrashSimulator(cfg).run(setup, scenario, verify);
  EXPECT_GT(points, 20u);  // several per transaction
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxSequenceCrash, ::testing::Range(1u, 9u));

}  // namespace

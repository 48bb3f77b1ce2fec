// tierkv_cache_test — the tiered cache engine over a real durable pool:
// write-through semantics, DRAM budget/eviction/admission, batch staging
// under caller-owned transactions and under the own-transaction calls, the
// typed corruption error, and topology-derived sizing.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "api/cxlpmem.hpp"
#include "pmemkit/errors.hpp"
#include "service/durable_map.hpp"
#include "tierkv/cache.hpp"

namespace api = cxlpmem::api;
namespace tierkv = cxlpmem::tierkv;
namespace service = cxlpmem::service;
namespace fs = std::filesystem;

namespace {

std::string compressible_value(std::size_t n, char salt = 'a') {
  std::string v;
  v.reserve(n);
  while (v.size() < n) {
    v.push_back(salt);
    v += "-block-payload-block-payload-block-payload ";
  }
  v.resize(n);
  return v;
}

class TierkvCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tierkv-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
    ASSERT_TRUE(rt.ok()) << rt.error().to_string();
    rt_ = std::make_unique<api::Runtime>(std::move(rt).value());
    auto pool = rt_->open_or_create_pool(
        "pmem2", "tier", {.file = "tier.pool", .size = 16u << 20});
    ASSERT_TRUE(pool.ok()) << pool.error().to_string();
    pool_ = std::make_unique<api::Pool>(std::move(pool).value());
    map_ = std::make_unique<service::DurableMap>(pool_->pmem());
  }

  void TearDown() override {
    tier_.reset();
    map_.reset();
    pool_.reset();
    rt_.reset();
    fs::remove_all(dir_);
  }

  tierkv::TieredCache& make_tier(tierkv::TierOptions opts) {
    tier_ = std::make_unique<tierkv::TieredCache>(*map_, std::move(opts));
    return *tier_;
  }

  fs::path dir_;
  std::unique_ptr<api::Runtime> rt_;
  std::unique_ptr<api::Pool> pool_;
  std::unique_ptr<service::DurableMap> map_;
  std::unique_ptr<tierkv::TieredCache> tier_;
};

TEST_F(TierkvCacheTest, PutGetEraseWriteThrough) {
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 64u << 10});
  EXPECT_FALSE(tier.get("nope").has_value());
  tier.put("k1", "value-one");
  tier.put("k2", "value-two");
  EXPECT_EQ(tier.get("k1").value(), "value-one");
  EXPECT_EQ(tier.get("k2").value(), "value-two");
  EXPECT_TRUE(tier.exists("k1"));
  // Write-through: every put is already durable in the cold tier.
  EXPECT_EQ(map_->size(), 2u);
  tier.put("k1", "value-one-v2");  // overwrite
  EXPECT_EQ(tier.get("k1").value(), "value-one-v2");
  EXPECT_EQ(map_->size(), 2u);
  EXPECT_TRUE(tier.erase("k1"));
  EXPECT_FALSE(tier.erase("k1"));
  EXPECT_FALSE(tier.exists("k1"));
  EXPECT_FALSE(tier.get("k1").has_value());
  EXPECT_EQ(map_->size(), 1u);
}

TEST_F(TierkvCacheTest, UnknownCodecThrowsInvalidArgument) {
  EXPECT_THROW(make_tier({.codec = "zstd", .dram_bytes = 1u << 20}),
               std::invalid_argument);
}

TEST_F(TierkvCacheTest, ColdTierStoresCompressed) {
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 32u << 10});
  for (int i = 0; i < 32; ++i)
    tier.put("c" + std::to_string(i), compressible_value(4096, char('a' + i)));
  const tierkv::TierStats s = tier.stats();
  EXPECT_EQ(s.raw_bytes, 32u * 4096u);
  EXPECT_LT(s.compressed_bytes, s.raw_bytes);
  EXPECT_GE(s.compression_ratio(), 1.5);
  // Accounting holds across overwrites and erases.
  tier.put("c0", compressible_value(2048));
  ASSERT_TRUE(tier.erase("c1"));
  const tierkv::TierStats s2 = tier.stats();
  EXPECT_EQ(s2.raw_bytes, 30u * 4096u + 2048u);
}

TEST_F(TierkvCacheTest, DramBudgetIsRespectedAndEvictionKeepsDataReadable) {
  const std::uint64_t budget = 4u << 10;
  auto& tier = make_tier({.codec = "lz", .dram_bytes = budget});
  for (int i = 0; i < 64; ++i)
    tier.put("e" + std::to_string(i), compressible_value(256, char('A' + i)));
  tierkv::TierStats s = tier.stats();
  EXPECT_LE(s.dram_bytes_used, budget);
  EXPECT_LT(s.dram_entries, 64u);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(tier.get("e" + std::to_string(i)).value(),
              compressible_value(256, char('A' + i)))
        << i;
  s = tier.stats();
  EXPECT_LE(s.dram_bytes_used, budget);
  EXPECT_GT(s.misses, 0u);  // the sweep had to decode cold blocks
}

TEST_F(TierkvCacheTest, OversizedValuesStayColdOnly) {
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 1u << 10});
  const std::string big = compressible_value(8192);
  tier.put("big", big);
  EXPECT_EQ(tier.stats().dram_entries, 0u);  // never admitted
  EXPECT_EQ(tier.get("big").value(), big);   // but fully readable
  EXPECT_EQ(tier.stats().dram_entries, 0u);
}

TEST_F(TierkvCacheTest, TinyLfuAdmitsTheFrequentlyAskedKey) {
  // Budget fits ~4 entries; fill DRAM via write-allocate, then hammer one
  // cold key: its frequency must out-earn a victim and earn residency.
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 2u << 10});
  for (int i = 0; i < 16; ++i)
    tier.put("filler" + std::to_string(i), std::string(400, 'f'));
  tier.put("popular", std::string(400, 'p'));
  const std::uint64_t hits_before = tier.stats().hits;
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(tier.get("popular").value(), std::string(400, 'p'));
  const tierkv::TierStats s = tier.stats();
  EXPECT_GT(s.hits, hits_before)
      << "a repeatedly-read key never became DRAM-resident";
  EXPECT_GT(s.demotions, 0u);  // admission evicted (and counted) a filler
}

TEST_F(TierkvCacheTest, BatchStagingCommitsOnSuccess) {
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 64u << 10});
  tier.put("stay", "before");
  {
    auto lock = tier.batch_lock();
    const auto r = pool_->run_tx([&] {
      tier.put_in_tx("stay", "after");
      tier.put_in_tx("fresh", "new-value");
      // Staged erase of a key overwritten earlier in the same batch.
      EXPECT_TRUE(tier.erase_in_tx("stay"));
      // Read-your-writes inside the open batch:
      EXPECT_FALSE(tier.get_in_batch("stay").has_value());
      EXPECT_EQ(tier.get_in_batch("fresh").value(), "new-value");
      EXPECT_FALSE(tier.exists_in_batch("stay"));
      EXPECT_TRUE(tier.exists_in_batch("fresh"));
    });
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    tier.commit_staged();
  }
  EXPECT_FALSE(tier.get("stay").has_value());
  EXPECT_EQ(tier.get("fresh").value(), "new-value");
}

TEST_F(TierkvCacheTest, BatchStagingDiscardsOnAbort) {
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 64u << 10});
  tier.put("k", "committed");
  ASSERT_EQ(tier.get("k").value(), "committed");  // now DRAM-resident
  {
    auto lock = tier.batch_lock();
    const auto r = pool_->run_tx([&] {
      tier.put_in_tx("k", "uncommitted");
      tier.put_in_tx("ghost", "never-here");
      throw std::runtime_error("simulated batch failure");
    });
    ASSERT_FALSE(r.ok());
    tier.discard_staged();
  }
  // Neither the DRAM tier nor the cold tier may show the aborted writes.
  EXPECT_EQ(tier.get("k").value(), "committed");
  EXPECT_FALSE(tier.get("ghost").has_value());
  EXPECT_EQ(map_->size(), 1u);
}

// The own-transaction put is a batch of one: when its transaction aborts
// (here: a value larger than the pool), the staged DRAM effect is dropped
// with it, so neither tier shows the failed write.
TEST_F(TierkvCacheTest, FailedPutLeavesBothTiersUntouched) {
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 64u << 10});
  tier.put("k", "committed");
  std::string huge(17u << 20, '\0');  // incompressible, beyond the 16 MiB pool
  std::uint64_t x = 88172645463325252ull;
  for (char& c : huge) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  EXPECT_THROW(tier.put("k", huge), cxlpmem::pmemkit::Error);
  EXPECT_EQ(tier.get("k").value(), "committed");
  EXPECT_EQ(map_->size(), 1u);
  EXPECT_EQ(tier.stats().raw_bytes, std::string("committed").size());
}

TEST_F(TierkvCacheTest, CorruptColdBlockThrowsCorruptImage) {
  auto& tier = make_tier({.codec = "lz", .dram_bytes = 64u << 10});
  // Plant a value that never went through the codec seam: the tier must
  // refuse to serve it rather than hand back garbage.
  map_->put("phantom", "this is not a cold block");
  try {
    (void)tier.get("phantom");
    FAIL() << "corrupt block served";
  } catch (const cxlpmem::pmemkit::PoolError& e) {
    EXPECT_EQ(e.kind(), cxlpmem::pmemkit::ErrKind::CorruptImage);
  }
}

TEST_F(TierkvCacheTest, DeriveDramBudgetTracksTheMachine) {
  // Modest working set: the advisor grants the full hot fraction.
  const std::uint64_t modest =
      tierkv::derive_dram_budget(*rt_, 64ull << 20, 0.25);
  EXPECT_EQ(modest, 16ull << 20);
  // A working set far beyond the machine shrinks the grant honestly.
  const std::uint64_t huge =
      tierkv::derive_dram_budget(*rt_, 1ull << 40, 0.25);
  EXPECT_LT(huge, 1ull << 38);
  EXPECT_GE(huge, 1ull << 20);  // never below the floor
}

}  // namespace

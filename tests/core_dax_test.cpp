// Tests for DAX namespaces: capacity, persistence discipline, pool
// lifecycle and imports.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "core/core.hpp"
#include "simkit/profiles.hpp"

namespace core = cxlpmem::core;
namespace pk = cxlpmem::pmemkit;
namespace profiles = cxlpmem::simkit::profiles;
namespace fs = std::filesystem;

namespace {

class DaxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("daxtest-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    setup_ = profiles::make_setup_one();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  profiles::SetupOne setup_;
};

constexpr std::uint64_t kPool = pk::ObjectPool::min_pool_size();

TEST_F(DaxTest, CxlNamespaceIsDurable) {
  core::DaxNamespace ns("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                        false);
  EXPECT_TRUE(ns.durable());
  EXPECT_EQ(ns.domain(), core::PersistenceDomain::BatteryBackedDevice);
  EXPECT_EQ(ns.capacity_bytes(), 16ull << 30);
  EXPECT_EQ(ns.used_bytes(), 0u);
}

TEST_F(DaxTest, DramNamespaceIsEmulatedPmem) {
  core::DaxNamespace ns("pmem0", dir_ / "pmem0", setup_.machine,
                        setup_.ddr5_socket0, true);
  EXPECT_FALSE(ns.durable());
  EXPECT_EQ(ns.domain(), core::PersistenceDomain::EmulatedPmem);
  // Creating a pool requires the explicit volatile opt-in.
  EXPECT_THROW((void)ns.create_pool("p", "l", kPool), pk::PoolError);
  EXPECT_NO_THROW((void)ns.create_pool("p", "l", kPool, true));
}

TEST_F(DaxTest, CapacityAccounting) {
  core::DaxNamespace ns("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                        false);
  { auto p = ns.create_pool("a", "l", kPool); }
  EXPECT_EQ(ns.used_bytes(), kPool);
  EXPECT_EQ(ns.available_bytes(), ns.capacity_bytes() - kPool);
  ns.remove_pool("a");
  EXPECT_EQ(ns.used_bytes(), 0u);
  EXPECT_FALSE(ns.pool_exists("a"));
}

TEST_F(DaxTest, OversizedPoolRefused) {
  core::DaxNamespace ns("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                        false);
  EXPECT_THROW((void)ns.create_pool("big", "l", 17ull << 30), pk::PoolError);
}

TEST_F(DaxTest, ResizeTracksCapacityAccounting) {
  core::DaxNamespace ns("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                        false);
  auto pool = ns.create_pool("a", "l", kPool);
  ASSERT_EQ(ns.used_bytes(), kPool);

  // A grow past the namespace's remaining bytes is refused up front, with
  // the pool and the accounting untouched.
  try {
    ns.resize_pool(*pool, ns.capacity_bytes() + pk::kChunkSize);
    FAIL() << "grow exceeded namespace capacity";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::CapacityExceeded);
  }
  EXPECT_EQ(ns.used_bytes(), kPool);
  EXPECT_EQ(pool->size(), kPool);

  // Grow then shrink: used_bytes follows the *actual* size delta.
  const std::uint64_t grown = kPool + 8 * pk::kChunkSize;
  ns.resize_pool(*pool, grown);
  EXPECT_EQ(pool->size(), grown);
  EXPECT_EQ(ns.used_bytes(), grown);

  ns.resize_pool(*pool, kPool);
  EXPECT_EQ(pool->size(), kPool);
  EXPECT_EQ(ns.used_bytes(), kPool);
}

TEST_F(DaxTest, RescanPicksUpExistingPools) {
  {
    core::DaxNamespace ns("pmem2", dir_ / "pmem2", setup_.machine,
                          setup_.cxl, false);
    auto p = ns.create_pool("keep", "l", kPool);
  }
  core::DaxNamespace again("pmem2", dir_ / "pmem2", setup_.machine,
                           setup_.cxl, false);
  EXPECT_EQ(again.used_bytes(), kPool);
  EXPECT_TRUE(again.pool_exists("keep"));
  auto p = again.open_pool("keep", "l");
  EXPECT_EQ(p->layout(), "l");
}

TEST_F(DaxTest, FileNamesMustBePlain) {
  core::DaxNamespace ns("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                        false);
  EXPECT_THROW((void)ns.create_pool("../escape", "l", kPool), pk::PoolError);
  EXPECT_THROW((void)ns.create_pool("", "l", kPool), pk::PoolError);
}

TEST_F(DaxTest, ImportEnforcesCapacityAndUniqueness) {
  core::DaxNamespace src("pmem0", dir_ / "pmem0", setup_.machine,
                         setup_.ddr5_socket0, true);
  core::DaxNamespace dst("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                         false);
  { auto p = src.create_pool("m", "l", kPool, true); }
  (void)dst.import_file(src.path() / "m", "m");
  EXPECT_EQ(dst.used_bytes(), kPool);
  EXPECT_THROW((void)dst.import_file(src.path() / "m", "m"), pk::PoolError);
}

// Satellite regression: import_file must fsync the copied file and then
// its parent directory BEFORE returning — a migration whose report claims
// durability while the bytes sit in the page cache is a lie a power cut
// exposes.  The real fsync cannot be crash-simulated, so the sync-observer
// seam pins the sequence instead.
TEST_F(DaxTest, ImportFileSyncsFileThenDirectory) {
  core::DaxNamespace src("pmem0", dir_ / "pmem0", setup_.machine,
                         setup_.ddr5_socket0, true);
  core::DaxNamespace dst("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                         false);
  { auto p = src.create_pool("m", "l", kPool, true); }

  std::vector<std::filesystem::path> synced;
  core::set_sync_observer(
      [&](const std::filesystem::path& p) { synced.push_back(p); });
  const auto to = dst.import_file(src.path() / "m", "m");
  core::set_sync_observer({});

  ASSERT_EQ(synced.size(), 2u);
  EXPECT_EQ(synced[0], to);           // file contents first
  EXPECT_EQ(synced[1], dst.path());   // then the directory entry
}

// Review regression: when the durability sync fails, the half-imported
// copy must be removed — otherwise every retry dies on PoolExists and the
// orphan's bytes escape capacity accounting.  (The observer throwing
// stands in for an fsync error: it fires on the same path.)
TEST_F(DaxTest, FailedImportSyncLeavesNoOrphan) {
  core::DaxNamespace src("pmem0", dir_ / "pmem0", setup_.machine,
                         setup_.ddr5_socket0, true);
  core::DaxNamespace dst("pmem2", dir_ / "pmem2", setup_.machine, setup_.cxl,
                         false);
  { auto p = src.create_pool("m", "l", kPool, true); }

  core::set_sync_observer([](const std::filesystem::path&) {
    throw pk::PoolError(pk::ErrKind::Io, "injected fsync failure");
  });
  EXPECT_THROW((void)dst.import_file(src.path() / "m", "m"), pk::PoolError);
  core::set_sync_observer({});

  EXPECT_FALSE(dst.pool_exists("m"));
  EXPECT_EQ(dst.used_bytes(), 0u);
  // The retry must now succeed cleanly.
  EXPECT_NO_THROW((void)dst.import_file(src.path() / "m", "m"));
  EXPECT_EQ(dst.used_bytes(), kPool);
}

TEST_F(DaxTest, PersistenceDomainClassification) {
  using core::PersistenceDomain;
  const auto legacy = profiles::make_legacy_setup();
  EXPECT_EQ(core::classify(legacy.machine.memory(legacy.dcpmm)),
            PersistenceDomain::AdrDimm);
  EXPECT_EQ(core::classify(legacy.machine.memory(legacy.ddr4_socket0)),
            PersistenceDomain::Volatile);
  EXPECT_EQ(core::classify(legacy.machine.memory(legacy.ddr4_socket0), true),
            PersistenceDomain::EmulatedPmem);
  EXPECT_TRUE(core::durable(PersistenceDomain::AdrDimm));
  EXPECT_TRUE(core::durable(PersistenceDomain::BatteryBackedDevice));
  EXPECT_FALSE(core::durable(PersistenceDomain::EmulatedPmem));
}

}  // namespace

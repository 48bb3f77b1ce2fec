// Tests for Optane->CXL pool migration (the paper's [22] scenario).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "core/core.hpp"
#include "simkit/profiles.hpp"

namespace core = cxlpmem::core;
namespace pk = cxlpmem::pmemkit;
namespace profiles = cxlpmem::simkit::profiles;
namespace fs = std::filesystem;

namespace {

class MigrateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("migtest-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    legacy_ = profiles::make_legacy_setup();
    modern_ = profiles::make_setup_one();
    src_ = std::make_unique<core::DaxNamespace>(
        "optane", dir_ / "optane", legacy_.machine, legacy_.dcpmm, false);
    dst_ = std::make_unique<core::DaxNamespace>(
        "pmem2", dir_ / "pmem2", modern_.machine, modern_.cxl, false);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  profiles::LegacySetup legacy_;
  profiles::SetupOne modern_;
  std::unique_ptr<core::DaxNamespace> src_, dst_;
};

struct Root {
  pk::ObjId data;
  std::uint64_t n;
};

TEST_F(MigrateTest, PoolMovesWithContentIntact) {
  constexpr std::uint64_t kN = 10000;
  std::uint64_t pool_id = 0;
  {
    auto pool = src_->create_pool("app.pool", "solver",
                                  pk::ObjectPool::min_pool_size() * 2);
    pool_id = pool->pool_id();
    auto* r = pool->direct(pool->root<Root>());
    const pk::ObjId oid =
        pool->alloc_atomic(kN * sizeof(double), 1, &r->data);
    auto* d = static_cast<double*>(pool->direct(oid));
    for (std::uint64_t i = 0; i < kN; ++i) d[i] = static_cast<double>(i);
    pool->persist(d, kN * sizeof(double));
    r->n = kN;
    pool->persist(&r->n, 8);
  }

  const auto report =
      core::migrate_pool(*src_, *dst_, "app.pool", "solver");
  EXPECT_EQ(report.pool_id, pool_id);
  EXPECT_EQ(report.source_domain, core::PersistenceDomain::AdrDimm);
  EXPECT_EQ(report.destination_domain,
            core::PersistenceDomain::BatteryBackedDevice);
  EXPECT_TRUE(report.durability_preserved());
  EXPECT_GT(report.bytes_copied, 0u);

  // The application opens the pool from its new home — unchanged code.
  auto pool = dst_->open_pool("app.pool", "solver");
  EXPECT_EQ(pool->pool_id(), pool_id);
  auto* r = pool->direct(pool->root<Root>());
  ASSERT_EQ(r->n, kN);
  const auto* d = static_cast<const double*>(pool->direct(r->data));
  for (std::uint64_t i = 0; i < kN; i += 97)
    ASSERT_DOUBLE_EQ(d[i], static_cast<double>(i));
}

TEST_F(MigrateTest, SourceRemainsIntact) {
  { auto p = src_->create_pool("keep.pool", "l",
                               pk::ObjectPool::min_pool_size()); }
  (void)core::migrate_pool(*src_, *dst_, "keep.pool", "l");
  EXPECT_TRUE(src_->pool_exists("keep.pool"));
  EXPECT_NO_THROW((void)src_->open_pool("keep.pool", "l"));
}

TEST_F(MigrateTest, DestinationAccountsCapacity) {
  { auto p = src_->create_pool("acct.pool", "l",
                               pk::ObjectPool::min_pool_size()); }
  const auto before = dst_->used_bytes();
  const auto report = core::migrate_pool(*src_, *dst_, "acct.pool", "l");
  EXPECT_EQ(dst_->used_bytes(), before + report.bytes_copied);
}

TEST_F(MigrateTest, WrongLayoutFailsBeforeCopying) {
  { auto p = src_->create_pool("x.pool", "actual",
                               pk::ObjectPool::min_pool_size()); }
  EXPECT_THROW(core::migrate_pool(*src_, *dst_, "x.pool", "expected"),
               pk::PoolError);
  EXPECT_FALSE(dst_->pool_exists("x.pool"));
  EXPECT_EQ(dst_->used_bytes(), 0u);
}

TEST_F(MigrateTest, DuplicateDestinationRefused) {
  { auto p = src_->create_pool("dup.pool", "l",
                               pk::ObjectPool::min_pool_size()); }
  (void)core::migrate_pool(*src_, *dst_, "dup.pool", "l");
  EXPECT_THROW(core::migrate_pool(*src_, *dst_, "dup.pool", "l"),
               pk::PoolError);
}

// Satellite regression: bytes_copied must report what actually landed at
// the destination — the copied file's on-disk size — not a number captured
// from the source pool before the copy even ran.
TEST_F(MigrateTest, BytesCopiedReportsDestinationFile) {
  constexpr std::uint64_t kSize = 2 * pk::ObjectPool::min_pool_size() + 4096;
  { auto p = src_->create_pool("sz.pool", "l", kSize); }
  const auto report = core::migrate_pool(*src_, *dst_, "sz.pool", "l");
  EXPECT_EQ(report.bytes_copied, fs::file_size(dst_->path() / "sz.pool"));
  EXPECT_EQ(report.bytes_copied, kSize);
}

// Satellite regression: a migration reported durable must actually be on
// media.  import_file has to fsync the copied file AND its directory
// before migrate_pool returns — pinned by observing the sync sequence —
// and the on-disk image must then survive a simulated power cut (remount =
// reread the file bytes elsewhere and open).
TEST_F(MigrateTest, MigrationIsDurableBeforeReporting) {
  constexpr std::uint64_t kN = 1000;
  {
    auto pool = src_->create_pool("dur.pool", "solver",
                                  pk::ObjectPool::min_pool_size() * 2);
    auto* r = pool->direct(pool->root<Root>());
    const pk::ObjId oid =
        pool->alloc_atomic(kN * sizeof(double), 1, &r->data);
    auto* d = static_cast<double*>(pool->direct(oid));
    for (std::uint64_t i = 0; i < kN; ++i) d[i] = static_cast<double>(i);
    pool->persist(d, kN * sizeof(double));
    r->n = kN;
    pool->persist(&r->n, 8);
  }

  std::vector<fs::path> synced;
  core::set_sync_observer([&](const fs::path& p) { synced.push_back(p); });
  const auto report =
      core::migrate_pool(*src_, *dst_, "dur.pool", "solver");
  core::set_sync_observer({});

  // File first, then its directory entry — both before migrate returned.
  ASSERT_GE(synced.size(), 2u);
  EXPECT_EQ(synced[synced.size() - 2], dst_->path() / "dur.pool");
  EXPECT_EQ(synced.back(), dst_->path());
  EXPECT_GT(report.bytes_copied, 0u);

  // Power cut: all that survives is what is on media.  The fsynced file
  // bytes are; reread them into a fresh "remounted" namespace and verify
  // the pool opens with its content intact.
  const fs::path remount_dir = dir_ / "remount";
  core::DaxNamespace remounted("pmem2b", remount_dir, modern_.machine,
                               modern_.cxl, false);
  fs::copy_file(dst_->path() / "dur.pool", remount_dir / "dur.pool");
  auto pool = remounted.open_pool("dur.pool", "solver");
  EXPECT_EQ(pool->pool_id(), report.pool_id);
  auto* r = pool->direct(pool->root<Root>());
  ASSERT_EQ(r->n, kN);
  const auto* d = static_cast<const double*>(pool->direct(r->data));
  for (std::uint64_t i = 0; i < kN; i += 37)
    ASSERT_DOUBLE_EQ(d[i], static_cast<double>(i));
}

TEST_F(MigrateTest, DowngradeIsFlagged) {
  // CXL (durable) -> emulated DRAM PMem (volatile): legal but flagged.
  core::DaxNamespace volatile_ns("pmem0", dir_ / "pmem0", modern_.machine,
                                 modern_.ddr5_socket0, true);
  { auto p = dst_->create_pool("down.pool", "l",
                               pk::ObjectPool::min_pool_size()); }
  const auto report =
      core::migrate_pool(*dst_, volatile_ns, "down.pool", "l");
  EXPECT_FALSE(report.durability_preserved());
}

}  // namespace

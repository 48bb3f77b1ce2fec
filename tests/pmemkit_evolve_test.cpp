// Online pool evolution: v1→v2 open-time migration against the golden
// fixture, an exhaustive mid-migration crash sweep, and the pool-open
// failure paths (truncated header, wrong magic, future version, stale
// migration marker) — each must come back as a typed error, never UB.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "evolve_fixture.hpp"
#include "pmemkit/crash_hook.hpp"
#include "temp_path.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fx = evolve_fixture;
namespace fs = std::filesystem;

namespace {

fs::path golden_fixture() {
  return fs::path(CXLPMEM_FIXTURES_DIR) / "golden_v1.img";
}

std::unique_ptr<pk::ObjectPool> open_pool(const fs::path& p, bool migrate) {
  pk::FileResource resource(p);
  pk::PoolOptions options;
  options.migrate = migrate;
  return pk::ObjectPool::open(resource, "evolve-fixture", options);
}

/// Patches `bytes` of the image file at `off`, recomputing nothing — the
/// failure-path tests corrupt images on purpose.
void patch_file(const fs::path& p, std::uint64_t off, const void* bytes,
                std::size_t len) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << p;
  f.seekp(static_cast<std::streamoff>(off));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(len));
  ASSERT_TRUE(f) << p;
}

pk::PoolHeader read_header(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  pk::PoolHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  return h;
}

/// RAII crash hook (mirrors crash_sim.cpp's guard).
struct HookGuard {
  explicit HookGuard(pk::CrashHook hook) {
    pk::set_crash_hook(std::move(hook));
  }
  ~HookGuard() { pk::set_crash_hook({}); }
};

}  // namespace

// The checked-in golden artifact: decode, migrate, verify every record,
// then prove the migrated image opens as a plain v2 pool.
TEST(EvolveTest, GoldenFixtureMigratesWithAllObjectsIntact) {
  const TempPath pool_path("evolve", "golden.pool");
  ASSERT_TRUE(fs::exists(golden_fixture()))
      << "missing checked-in fixture; regenerate with: pool_fixture gen "
         "tests/fixtures/golden_v1.img";
  fx::load_sparse(golden_fixture(), pool_path);
  ASSERT_EQ(read_header(pool_path).version, pk::kPoolVersionV1);

  {
    auto pool = open_pool(pool_path, /*migrate=*/true);
    EXPECT_TRUE(pool->recovered());
    EXPECT_EQ(pool->stats().layout_version, pk::kPoolVersion);
    EXPECT_EQ(fx::verify(*pool), fx::kRecCount - fx::kRecCount / 3);
  }
  ASSERT_EQ(read_header(pool_path).version, pk::kPoolVersion);
  {
    auto pool = open_pool(pool_path, /*migrate=*/false);
    EXPECT_FALSE(pool->recovered());
    EXPECT_NO_THROW(fx::verify(*pool));
    // The migrated pool is fully functional, not just readable.
    pool->run_tx([&] {
      const pk::ObjId oid = pool->tx_alloc(128, 42, /*zero=*/true);
      (void)oid;
    });
  }
}

TEST(EvolveTest, V1ImageRefusedWithoutOptIn) {
  const TempPath pool_path("evolve", "refuse.pool");
  fx::load_sparse(golden_fixture(), pool_path);
  try {
    open_pool(pool_path, /*migrate=*/false);
    FAIL() << "v1 image opened without the migrate flag";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::VersionMismatch);
  }
  // The refusal must leave the image untouched: migration still works.
  auto pool = open_pool(pool_path, /*migrate=*/true);
  EXPECT_NO_THROW(fx::verify(*pool));
}

TEST(EvolveTest, MigrateFlagIsIdempotentOnV2Pools) {
  const TempPath pool_path("evolve", "idempotent.pool");
  fx::load_sparse(golden_fixture(), pool_path);
  { auto pool = open_pool(pool_path, /*migrate=*/true); }
  auto pool = open_pool(pool_path, /*migrate=*/true);
  EXPECT_FALSE(pool->recovered());
  EXPECT_NO_THROW(fx::verify(*pool));
}

// Power failure at EVERY instrumentation point of the migration: reopening
// with the migrate flag must always finish the upgrade with the data
// intact, and reopening without it must either succeed (the seal landed —
// the image is v2) or fail with the precise typed error.  File-based
// rather than shadow-based: every byte the migrator writes is explicitly
// persisted before the next crash point, so the file IS the crash image.
TEST(EvolveTest, MigrationCrashSweep) {
  const TempPath pristine("evolve", "sweep-pristine.pool");
  const TempPath pool_path("evolve", "sweep.pool");
  fx::make_v1_image(pristine);

  // Counting pass.
  std::size_t total_points = 0;
  {
    fs::copy_file(pristine, pool_path, fs::copy_options::overwrite_existing);
    HookGuard guard([&](std::string_view) { ++total_points; });
    auto pool = open_pool(pool_path, /*migrate=*/true);
  }
  ASSERT_GE(total_points, 8u) << "migration lost its instrumentation";

  for (std::size_t k = 1; k <= total_points; ++k) {
    fs::copy_file(pristine, pool_path, fs::copy_options::overwrite_existing);
    bool crashed = false;
    {
      std::size_t seen = 0;
      HookGuard guard([&](std::string_view point) {
        if (++seen == k) throw pk::CrashInjected{std::string(point)};
      });
      try {
        open_pool(pool_path, /*migrate=*/true);
      } catch (const pk::CrashInjected&) {
        crashed = true;
      }
    }
    ASSERT_TRUE(crashed) << "crash point count changed between passes";

    // A plain open sees either a finished v2 image or a typed refusal —
    // never UB, never a hybrid.
    try {
      auto pool = open_pool(pool_path, /*migrate=*/false);
      EXPECT_NO_THROW(fx::verify(*pool)) << "crash point " << k;
    } catch (const pk::PoolError& e) {
      EXPECT_TRUE(e.kind() == pk::ErrKind::VersionMismatch ||
                  e.kind() == pk::ErrKind::MigrationPending)
          << "crash point " << k << ": " << e.what();
    }

    // The migrate flag always completes the upgrade.
    auto pool = open_pool(pool_path, /*migrate=*/true);
    EXPECT_EQ(pool->stats().layout_version, pk::kPoolVersion)
        << "crash point " << k;
    EXPECT_NO_THROW(fx::verify(*pool)) << "crash point " << k;
  }
}

// --- pool-open failure paths ------------------------------------------------

TEST(EvolveTest, TruncatedHeaderIsTypedError) {
  const TempPath pool_path("evolve", "truncated.pool");
  fx::make_v1_image(pool_path);
  fs::resize_file(pool_path, 512);  // shorter than PoolHeader
  try {
    open_pool(pool_path, /*migrate=*/true);
    FAIL() << "truncated image opened";
  } catch (const pk::PoolError& e) {
    EXPECT_TRUE(e.kind() == pk::ErrKind::SizeMismatch ||
                e.kind() == pk::ErrKind::CorruptImage)
        << e.what();
  }
}

TEST(EvolveTest, TruncatedLaneRegionIsTypedError) {
  const TempPath pool_path("evolve", "trunc-lanes.pool");
  fx::make_v1_image(pool_path);
  // Header intact, body gone: the size checks must fire before any lane or
  // heap structure is dereferenced.
  fs::resize_file(pool_path, pk::kHeaderSize + 64);
  try {
    open_pool(pool_path, /*migrate=*/true);
    FAIL() << "bodyless image opened";
  } catch (const pk::PoolError& e) {
    EXPECT_TRUE(e.kind() == pk::ErrKind::SizeMismatch ||
                e.kind() == pk::ErrKind::CorruptImage)
        << e.what();
  }
}

TEST(EvolveTest, WrongMagicIsTypedError) {
  const TempPath pool_path("evolve", "magic.pool");
  fx::make_v1_image(pool_path);
  const std::uint64_t bogus = 0x4445414442454546ull;
  patch_file(pool_path, 0, &bogus, sizeof(bogus));
  try {
    open_pool(pool_path, /*migrate=*/true);
    FAIL() << "non-pool opened";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::NotAPool);
  }
}

TEST(EvolveTest, FutureVersionIsTypedError) {
  const TempPath pool_path("evolve", "future.pool");
  fx::make_v1_image(pool_path);
  pk::PoolHeader h = read_header(pool_path);
  h.version = 99;  // from a build that does not exist yet
  h.checksum = pk::header_checksum(h);
  patch_file(pool_path, 0, &h, sizeof(h));
  for (const bool migrate : {false, true}) {
    try {
      open_pool(pool_path, migrate);
      FAIL() << "future-version image opened (migrate=" << migrate << ")";
    } catch (const pk::PoolError& e) {
      EXPECT_EQ(e.kind(), pk::ErrKind::VersionMismatch);
    }
  }
}

TEST(EvolveTest, MigrationMarkerWithoutOptInIsTypedError) {
  const TempPath pool_path("evolve", "marker.pool");
  fx::make_v1_image(pool_path);
  pk::EvolutionMarker m{};
  m.magic = pk::kEvolveMagic;
  m.op = static_cast<std::uint32_t>(pk::EvolveOp::MigrateV1V2);
  m.from_version = pk::kPoolVersionV1;
  m.to_version = pk::kPoolVersion;
  m.checksum = pk::marker_checksum(m);
  patch_file(pool_path, pk::kEvolveMarkerOff, &m, sizeof(m));
  try {
    open_pool(pool_path, /*migrate=*/false);
    FAIL() << "mid-migration image opened without the migrate flag";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::MigrationPending);
  }
  // Opting in finishes the interrupted migration.
  auto pool = open_pool(pool_path, /*migrate=*/true);
  EXPECT_EQ(pool->stats().layout_version, pk::kPoolVersion);
  EXPECT_NO_THROW(fx::verify(*pool));
}

TEST(EvolveTest, TornMarkerIsDiscardedOnOpen) {
  const TempPath pool_path("evolve", "torn-marker.pool");
  // A v2 pool this time: the torn marker is debris, not an obligation.
  {
    pk::FileResource resource(pool_path);
    auto pool = pk::ObjectPool::create(resource, "evolve-fixture",
                                       fx::fixture_pool_size());
    fx::populate(*pool);
  }
  pk::EvolutionMarker m{};
  m.magic = pk::kEvolveMagic;
  m.op = static_cast<std::uint32_t>(pk::EvolveOp::MigrateV1V2);
  m.checksum = 0xdeadbeef;  // torn: checksum never became valid
  patch_file(pool_path, pk::kEvolveMarkerOff, &m, sizeof(m));
  auto pool = open_pool(pool_path, /*migrate=*/false);
  EXPECT_NO_THROW(fx::verify(*pool));
  pool.reset();
  pk::EvolutionMarker after{};
  std::ifstream f(pool_path.path(), std::ios::binary);
  f.seekg(static_cast<std::streamoff>(pk::kEvolveMarkerOff));
  f.read(reinterpret_cast<char*>(&after), sizeof(after));
  EXPECT_EQ(after.magic, 0u) << "torn marker not cleared";
}

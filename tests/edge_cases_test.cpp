// Cross-cutting edge cases that don't fit a single module's test file:
// mapping failures, enum string round trips, placement corner cases,
// report formatting details.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/core.hpp"
#include "numakit/numakit.hpp"
#include "pmemkit/pmemkit.hpp"
#include "simkit/profiles.hpp"
#include "streamer/config.hpp"

namespace pk = cxlpmem::pmemkit;
namespace nk = cxlpmem::numakit;
namespace sk = cxlpmem::simkit;
namespace core = cxlpmem::core;
namespace profiles = sk::profiles;
namespace fs = std::filesystem;

namespace {

fs::path tmp(const std::string& tag) {
  return fs::temp_directory_path() /
         ("edge-" + std::to_string(::getpid()) + "-" + tag);
}

// --- MappedFile -------------------------------------------------------------

TEST(MappedFile, CreateRefusesExistingAndZeroSize) {
  const auto p = tmp("mf");
  fs::remove(p);
  { auto f = pk::MappedFile::create(p, 4096); }
  EXPECT_THROW((void)pk::MappedFile::create(p, 4096), pk::PoolError);
  EXPECT_THROW((void)pk::MappedFile::create(tmp("mf0"), 0), pk::PoolError);
  fs::remove(p);
}

TEST(MappedFile, OpenRefusesMissingAndEmpty) {
  EXPECT_THROW((void)pk::MappedFile::open(tmp("missing")), pk::PoolError);
  const auto p = tmp("empty");
  std::ofstream(p).close();
  EXPECT_THROW((void)pk::MappedFile::open(p), pk::PoolError);
  fs::remove(p);
}

TEST(MappedFile, MoveTransfersOwnership) {
  const auto p = tmp("mv");
  fs::remove(p);
  auto a = pk::MappedFile::create(p, 4096);
  std::byte* data = a.data();
  pk::MappedFile b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): by contract
  EXPECT_TRUE(b.valid());
  fs::remove(p);
}

// --- enum/string round trips --------------------------------------------------

TEST(Strings, MemoryAndLinkKinds) {
  EXPECT_EQ(sk::to_string(sk::MemoryKind::DramDdr5), "ddr5");
  EXPECT_EQ(sk::to_string(sk::MemoryKind::CxlExpander), "cxl");
  EXPECT_EQ(sk::to_string(sk::MemoryKind::Dcpmm), "dcpmm");
  EXPECT_EQ(sk::to_string(sk::LinkKind::Upi), "upi");
  EXPECT_EQ(sk::to_string(sk::LinkKind::PcieCxl), "pcie-cxl");
}

TEST(Strings, DomainsAndPolicies) {
  EXPECT_EQ(core::to_string(core::PersistenceDomain::BatteryBackedDevice),
            "battery-device");
  EXPECT_EQ(core::to_string(core::PersistenceDomain::EmulatedPmem),
            "emulated-pmem");
  EXPECT_EQ(nk::to_string(nk::AffinityPolicy::Close), "close");
  EXPECT_EQ(nk::to_string(nk::AffinityPolicy::Spread), "spread");
}

// --- oid ordering / typed oid -----------------------------------------------

TEST(Oid, OrderingAndNullness) {
  EXPECT_TRUE(pk::kNullOid.is_null());
  const pk::ObjId a{1, 100}, b{1, 200}, c{2, 50};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);  // pool id dominates
  pk::TypedOid<int> t{a};
  EXPECT_FALSE(t.is_null());
  EXPECT_EQ(t.raw, a);
}

// --- pool: zero-length tx_add_range and null frees ----------------------------

TEST(PoolEdge, BenignNoops) {
  const auto p = tmp("noop");
  fs::remove(p);
  auto pool = pk::ObjectPool::create(p, "noop",
                                     pk::ObjectPool::min_pool_size());
  struct R { std::uint64_t x; };
  auto* r = pool->direct(pool->root<R>());
  pool->run_tx([&] {
    pool->tx_add_range(&r->x, 0);       // zero-length: allowed, no entry
    pool->tx_free(pk::kNullOid);        // null free: allowed
  });
  pool->free_atomic(pk::kNullOid);      // null atomic free: allowed
  pk::ObjId null_slot = pk::kNullOid;
  pool->free_atomic(&null_slot);        // null destination: allowed
  EXPECT_EQ(pool->stats().heap.object_count, 1u);  // just the root
  pool.reset();
  fs::remove(p);
}

// --- streamer: title/label conventions -----------------------------------------

TEST(StreamerConfig, EveryTrendLabelEncodesPlacement) {
  const auto s1 = profiles::make_setup_one();
  const auto s2 = profiles::make_setup_two();
  for (const auto& g : cxlpmem::streamer::default_matrix(s1, s2))
    for (const auto& t : g.trends) {
      EXPECT_NE(t.label.find("cores:"), std::string::npos) << t.label;
      EXPECT_NE(t.label.find("#"), std::string::npos) << t.label;
    }
}

// --- dax namespace re-create after remove --------------------------------------

TEST(DaxEdge, RemoveThenRecreateSameName) {
  const auto dir = tmp("daxdir");
  fs::remove_all(dir);
  const auto s = profiles::make_setup_one();
  core::DaxNamespace ns("pmem2", dir, s.machine, s.cxl, false);
  { auto pool = ns.create_pool("a", "l", pk::ObjectPool::min_pool_size()); }
  ns.remove_pool("a");
  EXPECT_NO_THROW(
      { auto pool = ns.create_pool("a", "l", pk::ObjectPool::min_pool_size()); });
  fs::remove_all(dir);
}

// --- checkpoint: reopening with a different max size ----------------------------

TEST(CheckpointEdge, ReopenedStoreKeepsWorking) {
  const auto dir = tmp("cpdir");
  fs::remove_all(dir);
  const auto s = profiles::make_setup_one();
  core::DaxNamespace ns("pmem2", dir, s.machine, s.cxl, false);
  {
    core::CheckpointStore store(ns, "cp.pool", 4096);
    store.save(std::vector<std::byte>(100, std::byte{1}));
  }
  // Reopen with the same limit; save a larger payload into the other slot.
  core::CheckpointStore again(ns, "cp.pool", 4096);
  again.save(std::vector<std::byte>(4096, std::byte{2}));
  EXPECT_EQ(again.epoch(), 2u);
  EXPECT_EQ(again.load().size(), 4096u);
  fs::remove_all(dir);
}

}  // namespace

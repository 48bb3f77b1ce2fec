// Tests for the facade's service surface: checkpoint stores (including the
// allocation-free load_into restart path), pool migration between
// namespaces (success, capacity exhaustion, layout mismatch, durability
// downgrade reporting), and the data-placement service (tiers / place with
// durability constraints) — everything exercised through Runtime entry
// points, nothing through core:: directly.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "api/cxlpmem.hpp"
#include "setup_one_machine.hpp"
#include "temp_path.hpp"

namespace api = cxlpmem::api;
namespace pmemkit = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

std::vector<std::byte> payload_of(std::uint8_t fill, std::size_t n) {
  return std::vector<std::byte>(n, std::byte{fill});
}

class ApiServicesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("apisvc-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
    ASSERT_TRUE(rt.ok()) << rt.error().to_string();
    rt_ = std::make_unique<api::Runtime>(std::move(rt).value());
  }
  void TearDown() override {
    rt_.reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::unique_ptr<api::Runtime> rt_;
};

// ---------------------------------------------------------------------------
// Checkpoint store.
// ---------------------------------------------------------------------------

TEST_F(ApiServicesTest, CheckpointStoreOnUnknownNamespaceIsAnError) {
  auto store = rt_->checkpoint_store("pmem9", "cp.pool", 1024);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.error().code, api::Errc::UnknownNamespace);
}

TEST_F(ApiServicesTest, CheckpointSaveLoadIntoRoundTrip) {
  auto store = rt_->checkpoint_store("pmem2", "cp.pool", 1 << 16);
  ASSERT_TRUE(store.ok()) << store.error().to_string();

  // Nothing saved yet: load_into writes nothing and reports 0.
  std::vector<std::byte> buf(16, std::byte{0xee});
  EXPECT_EQ(store->load_into(buf).value(), 0u);
  EXPECT_EQ(store->payload_bytes(), 0u);

  const auto p1 = payload_of(0x11, 1000);
  ASSERT_TRUE(store->save(p1).ok());
  EXPECT_EQ(store->epoch(), 1u);
  EXPECT_EQ(store->payload_bytes(), 1000u);

  // Exact-size buffer.
  buf.assign(1000, std::byte{0});
  EXPECT_EQ(store->load_into(buf).value(), 1000u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), p1.begin()));

  // Oversized buffer: payload lands in the prefix, size is the truth.
  buf.assign(4096, std::byte{0xab});
  EXPECT_EQ(store->load_into(buf).value(), 1000u);
  EXPECT_EQ(buf[999], std::byte{0x11});
  EXPECT_EQ(buf[1000], std::byte{0xab});

  // load() agrees with load_into().
  EXPECT_EQ(store->load().value(), p1);
}

TEST_F(ApiServicesTest, CheckpointSpecKnobsDriveTheIncrementalEngine) {
  // The facade overload carries the chunk-size and thread-count knobs; the
  // NUMA-aware thread default binds workers to the namespace's placement.
  api::CheckpointSpec spec;
  spec.chunk_size = 8192;
  spec.threads = 2;
  auto store = rt_->checkpoint_store("pmem2", "cp.pool", 1 << 20, spec);
  ASSERT_TRUE(store.ok()) << store.error().to_string();
  EXPECT_EQ(store->chunk_size(), 8192u);

  auto p = payload_of(0x55, 64 * 1024);  // 8 chunks
  auto st = store->save(p);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().chunks_total, 8u);
  EXPECT_EQ(st.value().threads_used, 2);
  ASSERT_TRUE(store->save(p).ok());

  // Identical payload against a sealed slot: nothing moves.
  st = store->save(p);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().chunks_written, 0u);
  EXPECT_EQ(store->last_save().chunks_written, 0u);

  // One dirty byte: exactly one chunk moves; a Full save rewrites all 8.
  p[20000] = std::byte{0x77};
  st = store->save(p);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().chunks_written, 1u);
  st = store->save(p, api::SaveMode::Full);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().chunks_written, 8u);
  EXPECT_TRUE(st.value().full_rewrite);
  EXPECT_EQ(store->load().value(), p);
}

TEST_F(ApiServicesTest, CheckpointThreadsDefaultIsNumaSized) {
  // threads == 0: the runtime picks up to four workers from the CXL
  // namespace's nearest CPU node — never zero, never an error.
  api::CheckpointSpec spec;
  spec.threads = 0;
  auto store = rt_->checkpoint_store("pmem2", "cp.pool", 1 << 18, spec);
  ASSERT_TRUE(store.ok()) << store.error().to_string();
  const auto p = payload_of(0x66, 1 << 18);
  auto st = store->save(p);
  ASSERT_TRUE(st.ok());
  EXPECT_GE(st.value().threads_used, 1);
  EXPECT_LE(st.value().threads_used, 4);
  EXPECT_EQ(store->load().value(), p);
}

TEST_F(ApiServicesTest, CheckpointLoadIntoTooSmallBufferIsCapacityError) {
  auto store = rt_->checkpoint_store("pmem2", "cp.pool", 1 << 16);
  ASSERT_TRUE(store.ok()) << store.error().to_string();
  ASSERT_TRUE(store->save(payload_of(0x22, 2048)).ok());

  std::vector<std::byte> tiny(100);
  auto r = store->load_into(tiny);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, api::Errc::CapacityExceeded);
  // The payload itself is untouched by the failed load.
  EXPECT_EQ(store->payload_bytes(), 2048u);
  EXPECT_EQ(store->load().value(), payload_of(0x22, 2048));
}

TEST_F(ApiServicesTest, CheckpointOversizedSaveIsCapacityError) {
  auto store = rt_->checkpoint_store("pmem2", "cp.pool", 1024);
  ASSERT_TRUE(store.ok()) << store.error().to_string();
  auto r = store->save(payload_of(0x33, 4096));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, api::Errc::CapacityExceeded);
  EXPECT_EQ(store->epoch(), 0u);
}

TEST_F(ApiServicesTest, CheckpointSurvivesReopenThroughRuntime) {
  {
    auto store = rt_->checkpoint_store("pmem2", "cp.pool", 1 << 16);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->save(payload_of(0x44, 512)).ok());
  }
  auto store = rt_->checkpoint_store("pmem2", "cp.pool", 1 << 16);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->epoch(), 1u);
  std::vector<std::byte> buf(store->payload_bytes());
  EXPECT_EQ(store->load_into(buf).value(), 512u);
  EXPECT_EQ(buf, payload_of(0x44, 512));
}

// ---------------------------------------------------------------------------
// Pool migration.
// ---------------------------------------------------------------------------

struct MigRoot {
  pmemkit::ObjId data;
  std::uint64_t n;
};

TEST_F(ApiServicesTest, MigrationMovesPoolBetweenNamespaces) {
  constexpr std::uint64_t kN = 4096;
  std::uint64_t pool_id = 0;
  {
    auto pool = rt_->create_pool("pmem0", "solver", {.file = "app.pool"});
    ASSERT_TRUE(pool.ok()) << pool.error().to_string();
    auto& p = pool->pmem();
    auto* r = p.direct(p.root<MigRoot>());
    pool_id = p.pool_id();
    const pmemkit::ObjId oid =
        p.alloc_atomic(kN * sizeof(double), 1, &r->data);
    auto* d = static_cast<double*>(p.direct(oid));
    for (std::uint64_t i = 0; i < kN; ++i) d[i] = static_cast<double>(i);
    p.persist(d, kN * sizeof(double));
    r->n = kN;
    p.persist(&r->n, sizeof(r->n));
  }

  auto report = rt_->migrate_pool("pmem0", "pmem2", "app.pool", "solver");
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report->pool_id, pool_id);
  EXPECT_GT(report->bytes_copied, 0u);
  // Emulated-PMem (volatile) -> battery-backed CXL: durability improved.
  EXPECT_TRUE(report->durability_preserved());

  // The application reopens from the new home — unchanged code, and the
  // source is left intact for post-verification deletion.
  auto moved = rt_->open_pool("pmem2", "solver", {.file = "app.pool"});
  ASSERT_TRUE(moved.ok()) << moved.error().to_string();
  auto& p = moved->pmem();
  auto* r = p.direct(p.root<MigRoot>());
  ASSERT_EQ(r->n, kN);
  const auto* d = static_cast<const double*>(p.direct(r->data));
  for (std::uint64_t i = 0; i < kN; i += 97)
    ASSERT_DOUBLE_EQ(d[i], static_cast<double>(i));
  EXPECT_TRUE(rt_->pool_exists("pmem0", "app.pool").value());
}

TEST_F(ApiServicesTest, MigrationUnknownNamespacesAreErrors) {
  EXPECT_EQ(rt_->migrate_pool("nope", "pmem2", "x.pool", "l").error().code,
            api::Errc::UnknownNamespace);
  EXPECT_EQ(rt_->migrate_pool("pmem0", "nope", "x.pool", "l").error().code,
            api::Errc::UnknownNamespace);
}

TEST_F(ApiServicesTest, MigrationMissingSourcePoolIsPoolNotFound) {
  auto r = rt_->migrate_pool("pmem0", "pmem2", "ghost.pool", "l");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, api::Errc::PoolNotFound);
}

TEST_F(ApiServicesTest, MigrationLayoutMismatchFailsBeforeCopying) {
  ASSERT_TRUE(
      rt_->create_pool("pmem0", "actual", {.file = "x.pool"}).ok());
  auto r = rt_->migrate_pool("pmem0", "pmem2", "x.pool", "expected");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, api::Errc::LayoutMismatch);
  EXPECT_FALSE(rt_->pool_exists("pmem2", "x.pool").value());
}

TEST_F(ApiServicesTest, MigrationDestinationCapacityExhaustedIsAnError) {
  // A runtime whose CXL namespace is too small to host the migrated pool.
  const TempPath dir2("apisvc-tiny",
                      "MigrationDestinationCapacityExhaustedIsAnError");
  auto ids = setup_one_with_cxl([](cxlpmem::simkit::MemoryDesc& m) {
    m.capacity_bytes = 4ull << 20;
  });
  auto tiny = api::RuntimeBuilder()
                  .base_dir(dir2)
                  .machine(std::move(ids.machine))
                  .select_memory(ids.ddr5_socket0)
                  .as_emulated_pmem("pmem0")
                  .select_memory(ids.cxl)
                  .as_dax("pmem2")
                  .build();
  ASSERT_TRUE(tiny.ok()) << tiny.error().to_string();

  const std::uint64_t pool_size =
      pmemkit::ObjectPool::min_pool_size() * 2;  // > 4 MiB namespace
  ASSERT_GT(pool_size, 4ull << 20);
  ASSERT_TRUE(tiny->create_pool("pmem0", "big",
                                {.file = "big.pool", .size = pool_size})
                  .ok());

  auto r = tiny->migrate_pool("pmem0", "pmem2", "big.pool", "big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, api::Errc::CapacityExceeded);
  EXPECT_FALSE(tiny->pool_exists("pmem2", "big.pool").value());
}

TEST_F(ApiServicesTest, MigrationToVolatileDestinationReportsDowngrade) {
  // CXL (durable) -> emulated DRAM-PMem (volatile): legal but flagged.
  ASSERT_TRUE(rt_->create_pool("pmem2", "down", {.file = "down.pool"}).ok());
  auto report = rt_->migrate_pool("pmem2", "pmem0", "down.pool", "down");
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_FALSE(report->durability_preserved());
  EXPECT_TRUE(durable(report->source_domain));    // ADL: core::durable
  EXPECT_FALSE(durable(report->destination_domain));
  // And the migrated copy opens.
  EXPECT_TRUE(rt_->open_pool("pmem0", "down", {.file = "down.pool"}).ok());
}

// ---------------------------------------------------------------------------
// Data placement (tiers / place).
// ---------------------------------------------------------------------------

TEST_F(ApiServicesTest, TiersCoverEveryDeviceWithDurabilityFlags) {
  const auto tiers = rt_->tiers();
  ASSERT_EQ(tiers.size(), 3u);
  // Exactly one durable tier on Setup #1: the battery-backed CXL device.
  int durable_count = 0;
  for (const auto& t : tiers) durable_count += t.durable ? 1 : 0;
  EXPECT_EQ(durable_count, 1);
  // The durable tier is the device backing the pmem2 namespace.
  const auto pmem2 = rt_->space("pmem2").value().memory;
  for (const auto& t : tiers) {
    if (t.durable) {
      EXPECT_EQ(t.memory, pmem2);
    }
  }
}

TEST_F(ApiServicesTest, PlacePutsPersistentRequestsOnDurableTiersOnly) {
  auto plan = rt_->place({{.label = "checkpoints",
                           .bytes = 1ull << 30,
                           .needs_persistence = true,
                           .mlp = 16.0,
                           .read_fraction = 0.5,
                           .hotness = 1.0},
                          {.label = "scratch",
                           .bytes = 1ull << 30,
                           .needs_persistence = false,
                           .mlp = 16.0,
                           .read_fraction = 0.67,
                           .hotness = 5.0}});
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  EXPECT_TRUE(plan->fully_satisfied());
  EXPECT_EQ(plan->unsatisfied_count(), 0u);

  const auto* cp = plan->find("checkpoints");
  ASSERT_NE(cp, nullptr);
  ASSERT_TRUE(cp->satisfied);
  EXPECT_EQ(cp->memory, rt_->space("pmem2").value().memory);

  // The placement bridges back into namespace addressing: the chosen
  // device resolves to the pmem2 namespace, where a store can open.
  auto ns = rt_->namespace_for(cp->memory);
  ASSERT_TRUE(ns.ok());
  EXPECT_EQ(ns.value(), "pmem2");
  EXPECT_TRUE(rt_->checkpoint_store(*ns, "plan-cp.pool", 1024).ok());

  // The volatile request went somewhere faster (not the CXL device).
  const auto* scratch = plan->find("scratch");
  ASSERT_NE(scratch, nullptr);
  EXPECT_NE(scratch->memory, cp->memory);
}

TEST_F(ApiServicesTest, PlaceReportsUnsatisfiablePersistentRequests) {
  // Larger than the only durable tier (16 GiB CXL): cannot be placed even
  // though volatile capacity abounds.
  auto plan = rt_->place({{.label = "too-big",
                           .bytes = 64ull << 30,
                           .needs_persistence = true,
                           .mlp = 8.0,
                           .read_fraction = 0.5,
                           .hotness = 1.0}});
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  EXPECT_FALSE(plan->fully_satisfied());
  EXPECT_EQ(plan->unsatisfied_count(), 1u);
  EXPECT_FALSE(plan->decisions[0].satisfied);
  EXPECT_EQ(plan->decisions[0].memory, cxlpmem::simkit::kInvalidId);
  EXPECT_EQ(plan->find("absent"), nullptr);
}

TEST_F(ApiServicesTest, NamespaceForUnknownMemoryIsAnError) {
  auto ns = rt_->namespace_for(static_cast<cxlpmem::simkit::MemoryId>(999));
  ASSERT_FALSE(ns.ok());
  EXPECT_EQ(ns.error().code, api::Errc::UnknownNamespace);
}

}  // namespace

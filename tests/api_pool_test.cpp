// Tests for namespace-addressed pools through the cxlpmem facade: Result
// error paths on create/open, the PmemResource backend seam, and the
// paper's acceptance story — one kv workload, byte-identical code, running
// on an emulated-DRAM namespace and a CXL-device namespace selected solely
// by namespace name (including the recovery path on both).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "api/cxlpmem.hpp"
#include "cxlsim/fpga_proto.hpp"
#include "evolve_fixture.hpp"
#include "pmemkit/resource.hpp"
#include "setup_one_machine.hpp"
#include "temp_path.hpp"

namespace api = cxlpmem::api;
namespace cs = cxlpmem::cxlsim;
namespace pmemkit = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

class ApiPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("apipool-" + std::to_string(::getpid()) + "-" +
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

TEST_F(ApiPoolTest, UnknownNamespaceIsAnError) {
  auto pool = rt_->open_pool("pmem7", "kv");
  ASSERT_FALSE(pool.ok());
  EXPECT_EQ(pool.error().code, api::Errc::UnknownNamespace);

  EXPECT_EQ(rt_->create_pool("nope", "kv").error().code,
            api::Errc::UnknownNamespace);
  EXPECT_EQ(rt_->pool_exists("nope", "kv.pool").error().code,
            api::Errc::UnknownNamespace);
}

TEST_F(ApiPoolTest, OpenMissingPoolIsPoolNotFound) {
  auto pool = rt_->open_pool("pmem2", "kv");
  ASSERT_FALSE(pool.ok());
  EXPECT_EQ(pool.error().code, api::Errc::PoolNotFound);
}

TEST_F(ApiPoolTest, CreateTwiceIsPoolExists) {
  ASSERT_TRUE(rt_->create_pool("pmem2", "kv").ok());
  auto again = rt_->create_pool("pmem2", "kv");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, api::Errc::PoolExists);
}

TEST_F(ApiPoolTest, OpenWithWrongLayoutIsLayoutMismatch) {
  ASSERT_TRUE(rt_->create_pool("pmem2", "kv", {.file = "a.pool"}).ok());
  auto wrong = rt_->open_pool("pmem2", "other-layout", {.file = "a.pool"});
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.error().code, api::Errc::LayoutMismatch);
}

TEST_F(ApiPoolTest, CreateBeyondNamespaceCapacityIsCapacityExceeded) {
  // pmem2 is the 16 GiB FPGA; ask for more than it has.
  auto pool = rt_->create_pool("pmem2", "big",
                               {.file = "big.pool", .size = 32ull << 30});
  ASSERT_FALSE(pool.ok());
  EXPECT_EQ(pool.error().code, api::Errc::CapacityExceeded);
}

TEST_F(ApiPoolTest, EmulatedPmemNeedsNoVolatileOptIn) {
  // The namespace choice *is* the opt-in for pmem0/pmem1 (the paper's
  // emulated mounts) — no extra flag needed, same call as pmem2.
  auto pool = rt_->create_pool("pmem0", "kv");
  ASSERT_TRUE(pool.ok()) << pool.error().to_string();
  EXPECT_FALSE(pool->durable());
  EXPECT_EQ(pool->space().kind, api::ExposureKind::EmulatedPmem);
}

TEST_F(ApiPoolTest, VolatileDaxRequiresOptIn) {
  // A DAX namespace on plain socket DRAM (not marked emulated-pmem) is a
  // truly volatile domain: creation must demand allow_volatile.
  const TempPath dir2("apipool-volatile", "VolatileDaxRequiresOptIn");
  auto ids = cxlpmem::simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir2)
                .machine(std::move(ids.machine))
                .select_memory(ids.ddr5_socket0)
                .as_dax("vol0")
                .build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();

  auto refused = rt->create_pool("vol0", "kv");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, api::Errc::NotPersistent);

  auto allowed = rt->create_pool("vol0", "kv",
                                 {.file = "kv.pool", .allow_volatile = true});
  EXPECT_TRUE(allowed.ok()) << allowed.error().to_string();
}

// A namespace has one durability answer, and the attached device's battery
// state decides it: the space, the create gate, the migration report and
// placement all agree.  Setup #1's CXL memory is listed as persistent, but
// this device has no battery.
TEST_F(ApiPoolTest, BatteryLessDeviceMakesCxlNamespaceVolatile) {
  const TempPath dir2("apipool-nobattery",
                      "BatteryLessDeviceMakesCxlNamespaceVolatile");
  auto cfg = cs::fpga_prototype_config();
  cfg.battery_backed = false;
  auto ids = cxlpmem::simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir2)
                .machine(std::move(ids.machine))
                .select_memory(ids.ddr5_socket0)
                .as_emulated_pmem("pmem0")
                .select_memory(ids.cxl)
                .as_dax("pmem2")
                .attach_device(std::make_shared<cs::Type3Device>(cfg))
                .build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();

  EXPECT_FALSE(rt->space("pmem2")->durable());
  auto refused = rt->create_pool("pmem2", "kv");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, api::Errc::NotPersistent);

  ASSERT_TRUE(rt->create_pool("pmem0", "mig", {.file = "mig.pool"}).ok());
  auto report = rt->migrate_pool("pmem0", "pmem2", "mig.pool", "mig");
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report->destination_domain, api::PersistenceDomain::Volatile);

  // No memory of this machine is durable, so durable data fits nowhere.
  EXPECT_FALSE(rt->tiers().at(ids.cxl).durable);
  auto plan = rt->place({{.label = "cp",
                          .bytes = 1ull << 20,
                          .needs_persistence = true}});
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  ASSERT_EQ(plan->decisions.size(), 1u);
  EXPECT_FALSE(plan->decisions[0].satisfied);
}

// The converse: a battery-backed device makes its namespace durable even
// where the machine lists the CXL memory as non-persistent.
TEST_F(ApiPoolTest, BatteryBackedDeviceMakesCxlNamespaceDurable) {
  const TempPath dir2("apipool-battery",
                      "BatteryBackedDeviceMakesCxlNamespaceDurable");
  auto ids = setup_one_with_cxl(
      [](cxlpmem::simkit::MemoryDesc& m) { m.persistent = false; });
  auto rt = api::RuntimeBuilder()
                .base_dir(dir2)
                .machine(std::move(ids.machine))
                .select_memory(ids.cxl)
                .as_dax("pmem2")
                .attach_device(cs::make_fpga_prototype())
                .build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();

  EXPECT_TRUE(rt->space("pmem2")->durable());
  auto pool = rt->create_pool("pmem2", "kv");
  ASSERT_TRUE(pool.ok()) << pool.error().to_string();
  EXPECT_TRUE(pool->durable());
  EXPECT_TRUE(rt->tiers().at(ids.cxl).durable);
}

// The PMDK programming model carried over to the CXL namespace: root, tx,
// close, reopen.
TEST_F(ApiPoolTest, PoolOnCxlNamespaceEndToEnd) {
  struct R {
    std::uint64_t x;
  };
  {
    auto pool = rt_->create_pool("pmem2", "my-app");
    ASSERT_TRUE(pool.ok()) << pool.error().to_string();
    api::ptr<R> root = pool->root<R>().value();
    ASSERT_TRUE(pool->run_tx([&] {
                      pool->pmem().tx_add_range(&root->x, sizeof(root->x));
                      root->x = 2023;
                    })
                    .ok());
  }
  auto again = rt_->open_pool("pmem2", "my-app");
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again->root<R>().value()->x, 2023u);
}

TEST_F(ApiPoolTest, RemoveAndExistsRoundTrip) {
  ASSERT_TRUE(rt_->create_pool("pmem2", "kv").ok());
  EXPECT_TRUE(rt_->pool_exists("pmem2", "kv.pool").value());
  ASSERT_TRUE(rt_->remove_pool("pmem2", "kv.pool").ok());
  EXPECT_FALSE(rt_->pool_exists("pmem2", "kv.pool").value());
  EXPECT_EQ(rt_->remove_pool("pmem2", "kv.pool").error().code,
            api::Errc::PoolNotFound);
}

TEST_F(ApiPoolTest, MalformedFileNameIsAResultNotAThrow) {
  auto pool = rt_->create_pool("pmem2", "kv", {.file = "a/b.pool"});
  ASSERT_FALSE(pool.ok());
  EXPECT_EQ(pool.error().code, api::Errc::BadArgument);
  auto opened = rt_->open_pool("pmem2", "kv", {.file = "a/b.pool"});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, api::Errc::BadArgument);
}

// ---------------------------------------------------------------------------
// The acceptance story: one workload, two namespaces, zero code changes.
// ---------------------------------------------------------------------------

struct KvRoot {
  pmemkit::ObjId items[8];
  std::uint64_t count;
};

/// The workload under test.  Note it never mentions paths, exposure kinds,
/// or devices — only the namespace name it is handed.
void run_kv_workload(api::Runtime& rt, const std::string& ns) {
  SCOPED_TRACE("namespace " + ns);

  // Phase 1: create, fill transactionally, abort one tx, crash-close.
  {
    auto pool = rt.create_pool(ns, "kvwl");
    ASSERT_TRUE(pool.ok()) << pool.error().to_string();
    auto& p = pool->pmem();
    api::ptr<KvRoot> root = pool->root<KvRoot>().value();

    for (int i = 0; i < 4; ++i) {
      pool->run_tx([&] {
          const std::string v = "value-" + std::to_string(i);
          const pmemkit::ObjId oid = p.tx_alloc(v.size() + 1, 7);
          // No explicit persist: tx_alloc registers the block as a fresh
          // range, and commit flushes it — persisting here would write the
          // lines back twice.
          std::memcpy(p.direct(oid), v.c_str(), v.size() + 1);
          p.tx_add_range(root.get(), sizeof(KvRoot));
          root->items[root->count] = oid;
          root->count += 1;
        }).value();
    }

    // An aborted transaction must leave no trace on either backend.
    auto aborted = pool->run_tx([&] {
      p.tx_add_range(&root->count, sizeof(root->count));
      root->count = 999;
      throw std::runtime_error("application error");
    });
    ASSERT_FALSE(aborted.ok());
    EXPECT_EQ(aborted.error().code, api::Errc::Internal);
    EXPECT_EQ(root->count, 4u);

    // Simulate a dirty shutdown: the image keeps its "open" flag, so the
    // next open must walk the recovery path.
    p.mark_crashed();
  }

  // Phase 2: reopen — recovery runs, data is intact.
  {
    auto pool = rt.open_pool(ns, "kvwl");
    ASSERT_TRUE(pool.ok()) << pool.error().to_string();
    EXPECT_TRUE(pool->recovered());

    auto& p = pool->pmem();
    api::ptr<KvRoot> root = pool->root<KvRoot>().value();
    ASSERT_EQ(root->count, 4u);
    for (int i = 0; i < 4; ++i) {
      const auto* s = static_cast<const char*>(p.direct(root->items[i]));
      EXPECT_EQ(std::string(s), "value-" + std::to_string(i));
    }
  }
}

TEST_F(ApiPoolTest, SameWorkloadRunsOnEmulatedAndCxlNamespaces) {
  // pmem0: DDR5 socket DRAM posing as PMem.  pmem2: the battery-backed CXL
  // FPGA.  The workload body is the same function — the namespace name is
  // the only thing that differs, which is the paper's entire point.
  run_kv_workload(*rt_, "pmem0");
  run_kv_workload(*rt_, "pmem2");

  // The two runs really did land on different backends.
  EXPECT_EQ(rt_->space("pmem0").value().kind,
            api::ExposureKind::EmulatedPmem);
  EXPECT_EQ(rt_->space("pmem2").value().kind, api::ExposureKind::DeviceDax);
  EXPECT_NE(rt_->space("pmem0").value().memory,
            rt_->space("pmem2").value().memory);
}

// ---------------------------------------------------------------------------
// PmemResource: the injectable backend seam.
// ---------------------------------------------------------------------------

/// A backend that decorates FileResource and counts traffic through the
/// seam — stands in for any future non-file backing (device media, remote
/// segment, ...).
class CountingResource final : public pmemkit::PmemResource {
 public:
  explicit CountingResource(fs::path path) : file_(std::move(path)) {}
  pmemkit::MappedFile map_create(std::uint64_t size) override {
    ++creates;
    return file_.map_create(size);
  }
  pmemkit::MappedFile map_open() override {
    ++opens;
    return file_.map_open();
  }
  [[nodiscard]] bool exists() const override { return file_.exists(); }
  [[nodiscard]] std::string describe() const override {
    return "counting:" + file_.describe();
  }

  int creates = 0;
  int opens = 0;

 private:
  pmemkit::FileResource file_;
};

TEST_F(ApiPoolTest, ObjectPoolRunsOnAnInjectedBackend) {
  CountingResource res(dir_ / "injected.pool");

  {
    auto pool = pmemkit::ObjectPool::create(
        res, "seam", pmemkit::ObjectPool::min_pool_size());
    pool->root_raw(64);
  }
  {
    auto pool = pmemkit::ObjectPool::open(res, "seam");
    EXPECT_EQ(pool->layout(), "seam");
  }
  EXPECT_EQ(res.creates, 1);
  EXPECT_EQ(res.opens, 1);

  // Errors surface through the resource's identity, not a hard-coded path.
  pmemkit::FileResource missing(dir_ / "missing.pool");
  try {
    (void)pmemkit::ObjectPool::open(missing, "seam");
    FAIL() << "expected PoolError";
  } catch (const pmemkit::PoolError& e) {
    EXPECT_EQ(e.kind(), pmemkit::ErrKind::PoolNotFound);
  }
}

// The facade exposes occupancy AND contention counters, so a multi-threaded
// producer can see whether the pool is the bottleneck without dropping to
// pmemkit internals.
TEST_F(ApiPoolTest, StatsExposeOccupancyAndContentionCounters) {
  auto pool = rt_->create_pool("pmem2", "kv");
  ASSERT_TRUE(pool.ok()) << pool.error().to_string();

  const pmemkit::PoolStats before = pool.value().stats();
  EXPECT_EQ(before.lane_waits, 0u);

  const pmemkit::ObjId a = pool.value()->alloc_atomic(512, 3);
  auto tx = pool.value().run_tx([&] {
    (void)pool.value()->tx_alloc(128, 4);
  });
  ASSERT_TRUE(tx.ok());

  const pmemkit::PoolStats after = pool.value().stats();
  EXPECT_EQ(after.heap.alloc_ops, before.heap.alloc_ops + 2);
  EXPECT_EQ(after.heap.object_count, before.heap.object_count + 2);
  EXPECT_EQ(after.lane_count, pmemkit::kLaneCount);

  pool.value()->free_atomic(a);
  EXPECT_EQ(pool.value().stats().heap.free_ops, after.heap.free_ops + 1);
}

// ---------------------------------------------------------------------------
// Online pool evolution through the facade: resize, compact, v1 migration.
// ---------------------------------------------------------------------------

/// Fills the pool's heap with `bytes`-sized objects until it reports
/// OutOfSpace, recording the oids.  Returns how many landed.
int fill_pool_heap(pmemkit::ObjectPool& p,
                   std::vector<pmemkit::ObjId>* out = nullptr,
                   std::uint64_t bytes = 200 * 1024) {
  int n = 0;
  try {
    for (;;) {
      p.run_tx([&] {
        const pmemkit::ObjId oid = p.tx_alloc(bytes, 11);
        if (out != nullptr) out->push_back(oid);
      });
      ++n;
    }
  } catch (const pmemkit::AllocError&) {
  }
  return n;
}

TEST_F(ApiPoolTest, ResizeThroughFacadeGrowsAndRefusesLiveTailShrink) {
  auto pool = rt_->create_pool("pmem2", "kv");
  ASSERT_TRUE(pool.ok()) << pool.error().to_string();

  const std::uint64_t base = pmemkit::ObjectPool::min_pool_size();
  EXPECT_EQ(pool.value().stats().layout_version, pmemkit::kPoolVersion);
  EXPECT_EQ(pool.value().stats().resizes, 0u);

  const int in_base = fill_pool_heap(pool->pmem());
  ASSERT_GT(in_base, 0);

  // Grow is usable immediately: the very next allocation lands in the tail.
  const std::uint64_t grown = base + 8 * pmemkit::kChunkSize;
  ASSERT_TRUE(rt_->resize_pool(pool.value(), grown).ok());
  EXPECT_EQ(pool.value().stats().pool_size, grown);
  EXPECT_EQ(pool.value().stats().resizes, 1u);
  EXPECT_GT(fill_pool_heap(pool->pmem()), 0);

  // Live objects in the doomed tail: shrink comes back as a typed Result
  // error (ShrinkBlocked -> BadArgument), never UB, and changes nothing.
  auto blocked = rt_->resize_pool(pool.value(), base);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error().code, api::Errc::BadArgument);
  EXPECT_EQ(pool.value().stats().pool_size, grown);
}

TEST_F(ApiPoolTest, CompactThroughFacadeReducesFragmentation) {
  auto pool = rt_->create_pool("pmem2", "kv");
  ASSERT_TRUE(pool.ok()) << pool.error().to_string();
  auto& p = pool->pmem();

  // Fragment the heap: fill it with run-class objects (several per chunk,
  // so sparse survivors strand whole chunks), then free three of four.
  std::vector<pmemkit::ObjId> slots;
  ASSERT_GT(fill_pool_heap(p, &slots, 8000), 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i % 4 == 3) continue;
    ASSERT_TRUE(pool.value().run_tx([&] { p.tx_free(slots[i]); }).ok());
    slots[i] = pmemkit::ObjId{};
  }

  const double before = pool.value().stats().heap.fragmentation;
  std::vector<pmemkit::ObjId*> refs;
  for (auto& s : slots)
    if (!s.is_null()) refs.push_back(&s);

  auto report = pool.value().compact(refs);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report.value().moved_objects, 0u);
  EXPECT_LT(report.value().fragmentation_after, before);
  EXPECT_LT(pool.value().stats().heap.fragmentation, before);
  // The survivors are still reachable through their rewritten slots.
  for (const auto* s : refs) EXPECT_NE(p.direct(*s), nullptr);
}

TEST_F(ApiPoolTest, RuntimeResizeEnforcesNamespaceCapacity) {
  auto pool = rt_->create_pool("pmem2", "kv");
  ASSERT_TRUE(pool.ok()) << pool.error().to_string();
  const std::uint64_t base = pmemkit::ObjectPool::min_pool_size();

  // pmem2 has 16 GiB; a grow past that is refused before anything durable
  // happens, and the pool is untouched.
  auto refused = rt_->resize_pool(pool.value(), 32ull << 30);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, api::Errc::CapacityExceeded);
  EXPECT_EQ(pool.value().stats().pool_size, base);
  EXPECT_EQ(pool.value().stats().resizes, 0u);

  // A modest grow through the runtime works and is visible in the stats.
  const std::uint64_t grown = base + 8 * pmemkit::kChunkSize;
  ASSERT_TRUE(rt_->resize_pool(pool.value(), grown).ok());
  EXPECT_EQ(pool.value().stats().pool_size, grown);
  EXPECT_EQ(pool.value().stats().resizes, 1u);
}

TEST_F(ApiPoolTest, V1PoolMigratesThroughTheFacade) {
  namespace fx = evolve_fixture;
  // Namespace files live under <base>/mnt/<ns>; plant a genuine v1 image
  // there so the facade's open path sees it.
  const fs::path file = dir_ / "mnt" / "pmem2" / "evolve-fixture.pool";
  fs::create_directories(file.parent_path());
  fx::make_v1_image(file);

  // Without the opt-in the old image is a typed error, not a migration.
  auto refused = rt_->open_pool("pmem2", "evolve-fixture");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, api::Errc::PoolCorrupt);

  auto pool = rt_->open_pool(
      "pmem2", "evolve-fixture",
      {.file = "evolve-fixture.pool", .migrate = true});
  ASSERT_TRUE(pool.ok()) << pool.error().to_string();
  EXPECT_TRUE(pool->recovered());
  EXPECT_EQ(pool.value().stats().layout_version, pmemkit::kPoolVersion);
  EXPECT_EQ(fx::verify(pool->pmem()), fx::kRecCount - fx::kRecCount / 3);
}

}  // namespace

// Tests for the CxlPmemRuntime: exposure wiring, topology, device
// attachment, and the canonical Setup #1 runtime.
#include <gtest/gtest.h>

#include <filesystem>

#include "api/runtime_builder.hpp"
#include "core/core.hpp"

namespace api = cxlpmem::api;
namespace core = cxlpmem::core;
namespace cs = cxlpmem::cxlsim;
namespace profiles = cxlpmem::simkit::profiles;
namespace fs = std::filesystem;

namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rttest-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The paper's Setup #1, built the one way there is; tests read its core
  /// runtime.
  api::Runtime setup_one() {
    auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
    EXPECT_TRUE(rt.ok()) << rt.error().to_string();
    return std::move(rt).value();
  }

  fs::path dir_;
};

TEST_F(RuntimeTest, SetupOneRuntimeWiresThePaperConfiguration) {
  api::Runtime built = setup_one();
  core::Runtime& rt = built.core();
  const auto cxl = built.space("pmem2")->memory;
  const auto ddr5_socket0 = built.space("pmem0")->memory;
  // Three namespaces, named after Figure 2's mounts.
  const auto names = rt.dax_names();
  EXPECT_EQ(names.size(), 3u);
  EXPECT_NO_THROW((void)rt.dax("pmem0"));
  EXPECT_NO_THROW((void)rt.dax("pmem1"));
  EXPECT_NO_THROW((void)rt.dax("pmem2"));

  // pmem0/pmem1 are emulated PMem on DRAM; pmem2 is the real thing.
  EXPECT_FALSE(rt.dax("pmem0").durable());
  EXPECT_FALSE(rt.dax("pmem1").durable());
  EXPECT_TRUE(rt.dax("pmem2").durable());

  // The CXL memory is also onlined as NUMA node 2 (numactl --membind=2).
  EXPECT_EQ(rt.topology().node_count(), 3);
  EXPECT_EQ(rt.node_of_memory(cxl), 2);

  // The FPGA device is attached and battery-backed.
  auto* dev = rt.device(cxl);
  ASSERT_NE(dev, nullptr);
  EXPECT_TRUE(dev->persistence_domain());
  EXPECT_EQ(rt.domain_of(cxl), core::PersistenceDomain::BatteryBackedDevice);
  EXPECT_EQ(rt.domain_of(ddr5_socket0), core::PersistenceDomain::EmulatedPmem);
}

TEST_F(RuntimeTest, NamespaceLabelLandsInDeviceLsa) {
  api::Runtime rt = setup_one();
  auto* dev = rt.core().device(rt.space("pmem2")->memory);
  const auto lsa = dev->execute(cs::MboxOpcode::GetLsa, {});
  const std::string label(lsa.payload.begin(), lsa.payload.begin() + 5);
  EXPECT_EQ(label, "pmem2");
}

TEST_F(RuntimeTest, MemoryModeRequiresLinkAttachedDevice) {
  auto ids = profiles::make_setup_one();
  std::vector<core::Exposure> bad{{.memory = ids.ddr5_socket0,
                                   .dax_name = "x",
                                   .memory_mode = true}};
  EXPECT_THROW(core::Runtime(std::move(ids.machine), bad, dir_),
               std::invalid_argument);
}

TEST_F(RuntimeTest, DuplicateNamespaceRejected) {
  auto ids = profiles::make_setup_one();
  std::vector<core::Exposure> dup{
      {.memory = ids.ddr5_socket0, .dax_name = "same",
       .emulated_pmem = true},
      {.memory = ids.ddr5_socket1, .dax_name = "same",
       .emulated_pmem = true}};
  EXPECT_THROW(core::Runtime(std::move(ids.machine), dup, dir_),
               std::invalid_argument);
}

TEST_F(RuntimeTest, DeviceCapacityMismatchRejected) {
  auto ids = profiles::make_setup_one();
  std::vector<core::Exposure> exp{{.memory = ids.cxl, .dax_name = "pmem2",
                                   .memory_mode = true}};
  core::Runtime rt(std::move(ids.machine), exp, dir_);
  cs::Type3Config small;
  small.capacity_bytes = 1 << 20;
  small.persistent_bytes = 1 << 20;
  EXPECT_THROW(
      rt.attach_device(ids.cxl, std::make_shared<cs::Type3Device>(small)),
      std::invalid_argument);
}

TEST_F(RuntimeTest, PoolOnCxlNamespaceEndToEnd) {
  api::Runtime rt = setup_one();
  auto& pmem2 = rt.core().dax("pmem2");
  auto pool = pmem2.create_pool("app.pool", "my-app",
                                cxlpmem::pmemkit::ObjectPool::min_pool_size());
  // The PMDK programming model carried over: root + tx.
  struct R { std::uint64_t x; };
  auto* r = pool->direct(pool->root<R>());
  pool->run_tx([&] {
    pool->tx_add_range(&r->x, 8);
    r->x = 2023;
  });
  pool.reset();
  auto again = pmem2.open_pool("app.pool", "my-app");
  EXPECT_EQ(again->direct(again->root<R>())->x, 2023u);
}

TEST_F(RuntimeTest, UnknownNamespaceThrows) {
  api::Runtime rt = setup_one();
  EXPECT_THROW((void)rt.core().dax("pmem9"), std::invalid_argument);
}

}  // namespace

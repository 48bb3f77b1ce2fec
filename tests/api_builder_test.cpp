// Tests for the cxlpmem facade's RuntimeBuilder: build-time validation
// (Result errors, never exceptions), the Setup #1/#2 presets, and the
// MemorySpace handles the built runtime hands out.
#include <gtest/gtest.h>

#include <filesystem>

#include "api/cxlpmem.hpp"
#include "cxlsim/fpga_proto.hpp"

namespace api = cxlpmem::api;
namespace core = cxlpmem::core;
namespace cs = cxlpmem::cxlsim;
namespace simkit = cxlpmem::simkit;
namespace fs = std::filesystem;

namespace {

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("apibuild-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

/// A two-socket machine with one CXL expander, described fluently.
api::RuntimeBuilder two_socket_cxl(const fs::path& dir) {
  return std::move(api::RuntimeBuilder()
                       .base_dir(dir)
                       .socket_dram({.name = "s0"})
                       .as_emulated_pmem("pmem0")
                       .socket_dram({.name = "s1"})
                       .as_emulated_pmem("pmem1")
                       .upi()
                       .cxl_expander({.name = "cxl"})
                       .as_dax("pmem2")
                       .as_memory_mode());
}

TEST_F(BuilderTest, FluentDescriptionBuilds) {
  auto rt = two_socket_cxl(dir_).build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();
  EXPECT_EQ(rt->machine().socket_count(), 2);
  EXPECT_EQ(rt->namespaces(),
            (std::vector<std::string>{"pmem0", "pmem1", "pmem2"}));
}

TEST_F(BuilderTest, DuplicateNamespaceNameIsRejected) {
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .socket_dram({.name = "s0"})
                .as_emulated_pmem("pmem0")
                .socket_dram({.name = "s1"})
                .as_emulated_pmem("pmem0")  // same name twice
                .upi()
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::DuplicateNamespace);
}

TEST_F(BuilderTest, MemoryModeOnSocketDramIsRejected) {
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .socket_dram({.name = "s0"})
                .as_memory_mode()  // IMC-attached DRAM cannot online CPU-less
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::InvalidConfig);
}

TEST_F(BuilderTest, DeviceCapacityMismatchIsRejected) {
  auto cfg = cs::fpga_prototype_config();
  cfg.capacity_bytes = 8ull << 30;  // device says 8 GiB...
  cfg.persistent_bytes = 8ull << 30;
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .socket_dram({.name = "s0"})
                .cxl_expander({.name = "cxl",
                               .capacity_bytes = 16ull << 30})  // ...machine 16
                .as_dax("pmem2")
                .attach_device(std::make_shared<cs::Type3Device>(cfg))
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::CapacityMismatch);
}

TEST_F(BuilderTest, EmulatedPmemOnLinkAttachedMemoryIsRejected) {
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .socket_dram({.name = "s0"})
                .cxl_expander({.name = "cxl"})
                .as_emulated_pmem("pmem9")  // emulation marks socket DRAM
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::InvalidConfig);
}

TEST_F(BuilderTest, ModifierBeforeAnyMemoryIsRejected) {
  auto rt = api::RuntimeBuilder().base_dir(dir_).as_dax("pmem0").build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::InvalidConfig);
}

TEST_F(BuilderTest, MissingBaseDirIsRejected) {
  auto rt = api::RuntimeBuilder().socket_dram({.name = "s0"}).build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::InvalidConfig);
}

TEST_F(BuilderTest, SetupOnePresetMatchesThePaper) {
  auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();

  EXPECT_EQ(rt->namespaces(),
            (std::vector<std::string>{"pmem0", "pmem1", "pmem2"}));

  const api::MemorySpace pmem0 = rt->space("pmem0").value();
  EXPECT_EQ(pmem0.kind, api::ExposureKind::EmulatedPmem);
  EXPECT_EQ(pmem0.domain, core::PersistenceDomain::EmulatedPmem);
  EXPECT_FALSE(pmem0.durable());
  EXPECT_EQ(pmem0.numa_node, -1);

  const api::MemorySpace pmem2 = rt->space("pmem2").value();
  EXPECT_EQ(pmem2.kind, api::ExposureKind::DeviceDax);
  EXPECT_EQ(pmem2.domain, core::PersistenceDomain::BatteryBackedDevice);
  EXPECT_TRUE(pmem2.durable());
  // pmem2 is also onlined as the CPU-less NUMA node 2 (paper Figure 2).
  EXPECT_EQ(pmem2.numa_node, 2);
  EXPECT_EQ(rt->node_of("pmem2"), 2);

  // The MemorySpace carries the backing device's profile, with the CXL
  // link's latency folded into load-to-use.
  EXPECT_EQ(pmem2.profile.kind, simkit::MemoryKind::CxlExpander);
  EXPECT_TRUE(pmem2.profile.link_attached);
  EXPECT_DOUBLE_EQ(pmem2.profile.peak_read_gbs,
                   simkit::profiles::kCxlFpgaReadGbs);
  EXPECT_DOUBLE_EQ(pmem2.profile.idle_latency_ns,
                   simkit::profiles::kCxlFpgaIdleLatencyNs +
                       simkit::profiles::kCxlLinkLatencyNs);
  // The device model is attached and reachable through the escape hatch.
  EXPECT_NE(rt->core().device(pmem2.memory), nullptr);
}

TEST_F(BuilderTest, SetupTwoPresetHasNoCxl) {
  auto rt = api::RuntimeBuilder::setup_two().base_dir(dir_).build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();
  EXPECT_EQ(rt->namespaces(),
            (std::vector<std::string>{"pmem0", "pmem1"}));
  EXPECT_FALSE(rt->space("pmem0").value().durable());
  EXPECT_FALSE(rt->space("pmem1").value().durable());
  EXPECT_FALSE(rt->space("pmem2").ok());
  EXPECT_EQ(rt->space("pmem2").error().code, api::Errc::UnknownNamespace);
}

TEST(MemoryProfileTest, FoldsLinkLatencyAndCombinedCeiling) {
  auto ids = simkit::profiles::make_setup_one();
  const simkit::MemoryProfile dram =
      simkit::profile_of(ids.machine, ids.ddr5_socket0);
  EXPECT_FALSE(dram.link_attached);
  EXPECT_DOUBLE_EQ(dram.idle_latency_ns, simkit::profiles::kDdr5IdleLatencyNs);

  const simkit::MemoryProfile cxl = simkit::profile_of(ids.machine, ids.cxl);
  EXPECT_TRUE(cxl.link_attached);
  EXPECT_DOUBLE_EQ(cxl.idle_latency_ns,
                   simkit::profiles::kCxlFpgaIdleLatencyNs +
                       simkit::profiles::kCxlLinkLatencyNs);
  // The FPGA's soft-IP combined ceiling (16.5) is tighter than the link's.
  EXPECT_DOUBLE_EQ(cxl.peak_combined_gbs,
                   simkit::profiles::kCxlFpgaCombinedGbs);
  EXPECT_TRUE(cxl.persistent);
}

}  // namespace

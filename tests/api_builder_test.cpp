// Tests for the cxlpmem facade's RuntimeBuilder: build-time validation
// (Result errors, never exceptions, each rule checked once in build()),
// the Setup #1/#2 presets (namespaces, NUMA topology, the attached device
// and its LSA label), and the MemorySpace handles the runtime hands out.
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

TEST_F(BuilderTest, CustomMachineBuilds) {
  // Any simkit machine, exposed memory by memory: here Setup #1 with a
  // production DDR5 ASIC behind the CXL link instead of the FPGA.
  auto ids = simkit::profiles::make_setup_one_with_media(
      simkit::profiles::CxlMediaKind::Ddr5Asic);
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .machine(std::move(ids.machine))
                .select_memory(ids.ddr5_socket0)
                .as_emulated_pmem("pmem0")
                .select_memory(ids.ddr5_socket1)
                .as_emulated_pmem("pmem1")
                .select_memory(ids.cxl)
                .as_dax("pmem2")
                .as_memory_mode()
                .build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();
  EXPECT_EQ(rt->machine().socket_count(), 2);
  EXPECT_EQ(rt->namespaces(),
            (std::vector<std::string>{"pmem0", "pmem1", "pmem2"}));
  const api::MemorySpace pmem2 = rt->space("pmem2").value();
  EXPECT_EQ(pmem2.numa_node, 2);
  EXPECT_DOUBLE_EQ(pmem2.profile.peak_read_gbs,
                   simkit::profiles::kDdr5ReadGbs);
  // No device attached: the machine description decides durability.
  EXPECT_TRUE(pmem2.durable());
  EXPECT_EQ(rt->device("pmem2"), nullptr);
}

TEST_F(BuilderTest, DuplicateNamespaceNameIsRejected) {
  auto ids = simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .machine(std::move(ids.machine))
                .select_memory(ids.ddr5_socket0)
                .as_emulated_pmem("pmem0")
                .select_memory(ids.ddr5_socket1)
                .as_emulated_pmem("pmem0")  // same name twice
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::DuplicateNamespace);
}

TEST_F(BuilderTest, MemoryModeOnSocketDramIsRejected) {
  auto ids = simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .machine(std::move(ids.machine))
                .select_memory(ids.ddr5_socket0)
                .as_memory_mode()  // IMC-attached DRAM cannot online CPU-less
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::InvalidConfig);
}

TEST_F(BuilderTest, DeviceCapacityMismatchIsRejected) {
  auto cfg = cs::fpga_prototype_config();
  cfg.capacity_bytes = 8ull << 30;  // device says 8 GiB, the machine 16
  cfg.persistent_bytes = 8ull << 30;
  auto ids = simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .machine(std::move(ids.machine))
                .select_memory(ids.cxl)
                .as_dax("pmem2")
                .attach_device(std::make_shared<cs::Type3Device>(cfg))
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::CapacityMismatch);
}

TEST_F(BuilderTest, LabelTooLargeForDeviceLsaIsRejected) {
  auto cfg = cs::fpga_prototype_config();
  cfg.lsa_bytes = 4;  // cannot hold the 5-byte label "pmem2"
  auto ids = simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .machine(std::move(ids.machine))
                .select_memory(ids.cxl)
                .as_dax("pmem2")
                .attach_device(std::make_shared<cs::Type3Device>(cfg))
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::DeviceFailure);
  EXPECT_FALSE(fs::exists(dir_));  // refused before anything was created
}

TEST_F(BuilderTest, DeviceOnSocketMemoryIsRejected) {
  auto ids = simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .machine(std::move(ids.machine))
                .select_memory(ids.ddr5_socket0)
                .attach_device(cs::make_fpga_prototype())
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::InvalidConfig);
}

TEST_F(BuilderTest, EmulatedPmemOnLinkAttachedMemoryIsRejected) {
  auto ids = simkit::profiles::make_setup_one();
  auto rt = api::RuntimeBuilder()
                .base_dir(dir_)
                .machine(std::move(ids.machine))
                .select_memory(ids.cxl)
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
  auto rt = api::RuntimeBuilder()
                .machine(simkit::profiles::make_setup_one().machine)
                .build();
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.error().code, api::Errc::InvalidConfig);
}

TEST_F(BuilderTest, SetupOnePresetMatchesThePaper) {
  auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();

  // Three namespaces, named after Figure 2's mounts.
  EXPECT_EQ(rt->namespaces(),
            (std::vector<std::string>{"pmem0", "pmem1", "pmem2"}));

  // pmem0/pmem1 are emulated PMem on DRAM; pmem2 is the real thing.
  const api::MemorySpace pmem0 = rt->space("pmem0").value();
  EXPECT_EQ(pmem0.kind, api::ExposureKind::EmulatedPmem);
  EXPECT_EQ(pmem0.domain, core::PersistenceDomain::EmulatedPmem);
  EXPECT_FALSE(pmem0.durable());
  EXPECT_EQ(pmem0.numa_node, -1);
  EXPECT_FALSE(rt->space("pmem1").value().durable());

  const api::MemorySpace pmem2 = rt->space("pmem2").value();
  EXPECT_EQ(pmem2.kind, api::ExposureKind::DeviceDax);
  EXPECT_EQ(pmem2.domain, core::PersistenceDomain::BatteryBackedDevice);
  EXPECT_TRUE(pmem2.durable());
  // pmem2 is also onlined as the CPU-less NUMA node 2 (paper Figure 2,
  // numactl --membind=2), next to the two socket nodes.
  EXPECT_EQ(pmem2.numa_node, 2);
  EXPECT_EQ(rt->topology().node_count(), 3);
  EXPECT_EQ(rt->topology().node_of_memory(pmem2.memory), 2);

  // The MemorySpace carries the backing device's profile, with the CXL
  // link's latency folded into load-to-use.
  EXPECT_EQ(pmem2.profile.kind, simkit::MemoryKind::CxlExpander);
  EXPECT_TRUE(pmem2.profile.link_attached);
  EXPECT_DOUBLE_EQ(pmem2.profile.peak_read_gbs,
                   simkit::profiles::kCxlFpgaReadGbs);
  EXPECT_DOUBLE_EQ(pmem2.profile.idle_latency_ns,
                   simkit::profiles::kCxlFpgaIdleLatencyNs +
                       simkit::profiles::kCxlLinkLatencyNs);

  // The FPGA device model is attached behind pmem2 and battery-backed;
  // the emulated namespaces have none.
  const cs::Type3Device* dev = rt->device("pmem2");
  ASSERT_NE(dev, nullptr);
  EXPECT_TRUE(dev->persistence_domain());
  EXPECT_EQ(rt->device("pmem0"), nullptr);
  EXPECT_EQ(rt->device("pmem9"), nullptr);
}

TEST_F(BuilderTest, NamespaceLabelLandsInDeviceLsa) {
  auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();
  cs::Type3Device* dev = rt->device("pmem2");
  ASSERT_NE(dev, nullptr);
  const auto lsa = dev->execute(cs::MboxOpcode::GetLsa, {});
  ASSERT_GE(lsa.payload.size(), 5u);
  EXPECT_EQ(std::string(lsa.payload.begin(), lsa.payload.begin() + 5),
            "pmem2");
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
}

}  // namespace

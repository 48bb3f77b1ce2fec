// Tests for the bandwidth model: per-flow caps, saturation, remote
// amplification, LLC filter, and the behavioural building blocks behind the
// paper's figures.
#include <gtest/gtest.h>

#include "simkit/bwmodel.hpp"
#include "simkit/profiles.hpp"

namespace sk = cxlpmem::simkit;
namespace profiles = sk::profiles;

namespace {

std::vector<sk::TrafficSpec> specs_for(std::vector<int> cores,
                                       sk::MemoryId mem,
                                       sk::KernelTraffic traffic,
                                       double amp = 1.0) {
  std::vector<sk::TrafficSpec> out;
  for (const int c : cores)
    out.push_back({.core = c,
                   .memory = mem,
                   .traffic = traffic,
                   .software_factor = 1.0,
                   .traffic_amplification = amp,
                   .working_set_bytes = profiles::kStreamWorkingSetBytes});
  return out;
}

std::vector<int> cores(int from, int count) {
  std::vector<int> v(count);
  for (int i = 0; i < count; ++i) v[i] = from + i;
  return v;
}

class BwModelTest : public ::testing::Test {
 protected:
  profiles::SetupOne s1 = profiles::make_setup_one();
  profiles::SetupTwo s2 = profiles::make_setup_two();
};

TEST_F(BwModelTest, SingleFlowIsConcurrencyCapped) {
  sk::ModelOptions opts;
  opts.llc_filter = false;
  const sk::BandwidthModel model(s1.machine, opts);
  const auto r = model.solve(
      specs_for({0}, s1.ddr5_socket0, sk::kernel_traffic::kCopy));
  // Cap = mlp * 64B / latency / traffic-per-counted-byte:
  // 16 * 64 / 95ns = 10.78 GB/s raw; copy moves 1.5 lines per counted byte.
  const double expected = 16.0 * 64.0 / 95e-9 / 1e9 / 1.5;
  EXPECT_NEAR(r.flows[0].rate_gbs, expected, 1e-6);
  EXPECT_NEAR(r.flows[0].rate_cap_gbs, expected, 1e-6);
}

TEST_F(BwModelTest, ManyFlowsSaturateTheDimm) {
  sk::ModelOptions opts;
  opts.llc_filter = false;
  const sk::BandwidthModel model(s1.machine, opts);
  const auto r = model.solve(
      specs_for(cores(0, 10), s1.ddr5_socket0, sk::kernel_traffic::kCopy));
  // Copy is read-bound (read coeff 1.0): total = DDR5 read capacity.
  EXPECT_NEAR(r.total_gbs, profiles::kDdr5ReadGbs, 1e-6);
}

TEST_F(BwModelTest, BandwidthRampIsMonotoneInThreads) {
  const sk::BandwidthModel model(s1.machine);
  double prev = 0.0;
  for (int n = 1; n <= 10; ++n) {
    const auto r = model.solve(
        specs_for(cores(0, n), s1.cxl, sk::kernel_traffic::kTriad));
    EXPECT_GE(r.total_gbs, prev - 1e-9) << "n=" << n;
    prev = r.total_gbs;
  }
}

TEST_F(BwModelTest, RemoteAccessIsSlowerThanLocal) {
  const sk::BandwidthModel model(s1.machine);
  const auto local = model.solve(
      specs_for(cores(0, 10), s1.ddr5_socket0, sk::kernel_traffic::kCopy));
  const auto remote = model.solve(
      specs_for(cores(0, 10), s1.ddr5_socket1, sk::kernel_traffic::kCopy));
  EXPECT_LT(remote.total_gbs, local.total_gbs);
  // The remote path is UPI-limited: utilization of the UPI rx resource ~1.
  bool upi_saturated = false;
  for (std::size_t i = 0; i < remote.resources.size(); ++i)
    if (remote.resources[i].name == "upi/rx" &&
        remote.utilization[i] > 0.99)
      upi_saturated = true;
  EXPECT_TRUE(upi_saturated);
}

TEST_F(BwModelTest, RemoteAmplificationCostsThroughput) {
  sk::ModelOptions with{.remote_amplification = 1.08, .latency = {}};
  sk::ModelOptions without{.remote_amplification = 1.0, .latency = {}};
  const auto specs =
      specs_for(cores(0, 10), s1.ddr5_socket1, sk::kernel_traffic::kCopy);
  const double w = sk::BandwidthModel(s1.machine, with).solve(specs).total_gbs;
  const double wo =
      sk::BandwidthModel(s1.machine, without).solve(specs).total_gbs;
  EXPECT_NEAR(wo / w, 1.08, 1e-6);
}

TEST_F(BwModelTest, LlcFilterHelpsLargerCaches) {
  // Same machine, same working set: shrinking the working set raises the
  // filtered (served-from-cache) fraction and the counted rate.
  const sk::BandwidthModel model(s1.machine);
  auto small_ws =
      specs_for(cores(0, 10), s1.cxl, sk::kernel_traffic::kCopy);
  for (auto& s : small_ws) s.working_set_bytes = 1ull << 30;  // 1 GiB
  auto large_ws =
      specs_for(cores(0, 10), s1.cxl, sk::kernel_traffic::kCopy);
  for (auto& s : large_ws) s.working_set_bytes = 64ull << 30;
  EXPECT_GT(model.solve(small_ws).total_gbs,
            model.solve(large_ws).total_gbs);
}

TEST_F(BwModelTest, PmdkAmplificationCostsTenToFifteenPercent) {
  const sk::BandwidthModel model(s1.machine);
  const auto raw = model.solve(
      specs_for(cores(0, 10), s1.cxl, sk::kernel_traffic::kCopy));
  const auto pmdk = model.solve(
      specs_for(cores(0, 10), s1.cxl, sk::kernel_traffic::kCopy,
                1.0 / profiles::kPmdkSoftwareFactor));
  const double overhead = 1.0 - pmdk.total_gbs / raw.total_gbs;
  EXPECT_GE(overhead, 0.10);
  EXPECT_LE(overhead, 0.15);
}

TEST_F(BwModelTest, WriteHeavyKernelSeesWriteCapacity) {
  // A pure-write flow against the asymmetric DCPMM profile is bound by the
  // 2.3 GB/s write rate.
  const auto legacy = profiles::make_legacy_setup();
  sk::ModelOptions opts;
  opts.llc_filter = false;
  const sk::BandwidthModel model(legacy.machine, opts);
  std::vector<sk::TrafficSpec> specs;
  for (int c = 0; c < 10; ++c)
    specs.push_back({.core = c,
                     .memory = legacy.dcpmm,
                     .traffic = {.read_frac = 0.0,
                                 .write_frac = 1.0,
                                 .write_allocate = false},
                     .software_factor = 1.0,
                     .traffic_amplification = 1.0,
                     .working_set_bytes = 0});
  EXPECT_NEAR(model.solve(specs).total_gbs, 2.3, 1e-6);
}

TEST_F(BwModelTest, NonTemporalStoresSkipTheRfo) {
  sk::ModelOptions opts;
  opts.llc_filter = false;
  const sk::BandwidthModel model(s1.machine, opts);
  auto rfo = specs_for(cores(0, 10), s1.ddr5_socket0,
                       {.read_frac = 0.5, .write_frac = 0.5,
                        .write_allocate = true});
  auto nt = specs_for(cores(0, 10), s1.ddr5_socket0,
                      {.read_frac = 0.5, .write_frac = 0.5,
                       .write_allocate = false});
  // Without RFO the read channel serves only demand reads -> higher rate.
  EXPECT_GT(model.solve(nt).total_gbs, model.solve(rfo).total_gbs);
}

TEST_F(BwModelTest, InterleavedFlowSplitsViaSoftwareFactor) {
  const sk::BandwidthModel model(s1.machine);
  // One thread split 50/50 across the two DDR5 DIMMs: each half capped at
  // half the thread's budget; the total matches the unsplit local rate
  // only when both halves are local -- here one is remote, so it's lower
  // than 2x but higher than the remote-only rate.
  std::vector<sk::TrafficSpec> split;
  for (const auto mem : {s1.ddr5_socket0, s1.ddr5_socket1}) {
    sk::TrafficSpec s;
    s.core = 0;
    s.memory = mem;
    s.traffic = sk::kernel_traffic::kCopy;
    s.software_factor = 0.5;
    s.working_set_bytes = profiles::kStreamWorkingSetBytes;
    split.push_back(s);
  }
  const auto r = model.solve(split);
  const auto local = model.solve(
      specs_for({0}, s1.ddr5_socket0, sk::kernel_traffic::kCopy));
  EXPECT_LT(r.total_gbs, local.total_gbs);
  EXPECT_GT(r.total_gbs, 0.5 * local.total_gbs);
}

TEST_F(BwModelTest, LoadedLatencyReportedAtSaturation) {
  const sk::BandwidthModel model(s1.machine);
  const auto idle = model.solve(
      specs_for({0}, s1.ddr5_socket0, sk::kernel_traffic::kCopy));
  const auto loaded = model.solve(
      specs_for(cores(0, 10), s1.ddr5_socket0, sk::kernel_traffic::kCopy));
  EXPECT_GT(loaded.flows[0].latency_ns, idle.flows[0].latency_ns);
}

}  // namespace

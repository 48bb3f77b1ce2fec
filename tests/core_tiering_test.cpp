// Tests for the tiered data-placement advisor.
#include <gtest/gtest.h>

#include "core/tiering.hpp"
#include "simkit/profiles.hpp"

namespace core = cxlpmem::core;
namespace profiles = cxlpmem::simkit::profiles;

namespace {

using core::PersistenceDomain;

class TieringTest : public ::testing::Test {
 protected:
  // Setup #1 as api::Runtime::setup_one() decides it: socket DRAM is not
  // durable, the battery-backed CXL device is.
  TieringTest()
      : setup_(profiles::make_setup_one()),
        advisor_(setup_.machine, setup_.socket0,
                 {PersistenceDomain::EmulatedPmem,
                  PersistenceDomain::EmulatedPmem,
                  PersistenceDomain::BatteryBackedDevice}) {}

  profiles::SetupOne setup_;
  core::TierAdvisor advisor_;
};

TEST_F(TieringTest, TiersCoverEveryDevice) {
  ASSERT_EQ(advisor_.tiers().size(), 3u);
  // Local DRAM is the fastest tier; CXL has the highest latency.
  const auto& tiers = advisor_.tiers();
  EXPECT_LT(tiers[0].idle_latency_ns, tiers[1].idle_latency_ns);
  EXPECT_LT(tiers[1].idle_latency_ns, tiers[2].idle_latency_ns);
  EXPECT_FALSE(tiers[0].durable);
  EXPECT_TRUE(tiers[2].durable);  // battery-backed CXL
}

TEST_F(TieringTest, DurabilityComesFromTheCallersDomains) {
  // A battery-less device on the CXL memory: the caller's domain wins over
  // the machine description, which lists that memory as persistent.
  const core::TierAdvisor advisor(setup_.machine, setup_.socket0,
                                  {PersistenceDomain::Volatile,
                                   PersistenceDomain::Volatile,
                                   PersistenceDomain::Volatile});
  EXPECT_FALSE(advisor.tiers()[2].durable);
  EXPECT_FALSE(advisor.plan({{.label = "cp",
                              .bytes = 1ull << 20,
                              .needs_persistence = true}})
                   .fully_satisfied());
  EXPECT_THROW(core::TierAdvisor(setup_.machine, setup_.socket0, {}),
               std::invalid_argument);
}

TEST_F(TieringTest, HotStreamingDataGoesToLocalDram) {
  auto decisions = advisor_.place({{.label = "hot-arrays",
                                    .bytes = 1ull << 30,
                                    .needs_persistence = false,
                                    .mlp = 16.0,
                                    .read_fraction = 0.67,
                                    .hotness = 10.0}});
  ASSERT_TRUE(decisions[0].satisfied);
  EXPECT_EQ(decisions[0].memory, setup_.ddr5_socket0);
}

TEST_F(TieringTest, PersistentDataMustLandOnDurableTier) {
  auto decisions = advisor_.place({{.label = "checkpoints",
                                    .bytes = 1ull << 30,
                                    .needs_persistence = true,
                                    .mlp = 16.0,
                                    .read_fraction = 0.5,
                                    .hotness = 1.0}});
  ASSERT_TRUE(decisions[0].satisfied);
  EXPECT_EQ(decisions[0].memory, setup_.cxl);  // the only durable tier
}

TEST_F(TieringTest, CapacityPressureSpillsColdDataToCxl) {
  // Two volatile requests that cannot both fit in the 64 GiB local DIMM:
  // the hotter one wins DRAM, the colder one spills.
  auto decisions = advisor_.place({{.label = "cold",
                                    .bytes = 40ull << 30,
                                    .needs_persistence = false,
                                    .mlp = 16.0,
                                    .read_fraction = 0.67,
                                    .hotness = 1.0},
                                   {.label = "hot",
                                    .bytes = 40ull << 30,
                                    .needs_persistence = false,
                                    .mlp = 16.0,
                                    .read_fraction = 0.67,
                                    .hotness = 5.0}});
  // Output order follows hotness.
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].request.label, "hot");
  EXPECT_EQ(decisions[0].memory, setup_.ddr5_socket0);
  EXPECT_EQ(decisions[1].request.label, "cold");
  EXPECT_NE(decisions[1].memory, setup_.ddr5_socket0);
  EXPECT_TRUE(decisions[1].satisfied);
}

TEST_F(TieringTest, LatencyBoundRequestsPreferNearMemoryOverRemote) {
  // A pointer-chasing request scores tiers by latency, so remote-socket
  // DDR5 beats CXL even though their streaming numbers are closer.
  const auto& tiers = advisor_.tiers();
  core::PlacementRequest chase{.label = "graph",
                               .bytes = 1 << 20,
                               .needs_persistence = false,
                               .mlp = 1.0,
                               .read_fraction = 1.0,
                               .hotness = 1.0};
  const double remote = advisor_.score(tiers[1], chase);
  const double cxl = advisor_.score(tiers[2], chase);
  EXPECT_GT(remote, 2.0 * cxl);  // 140 ns vs 460 ns
}

TEST_F(TieringTest, ImpossibleRequestComesBackUnsatisfied) {
  auto decisions = advisor_.place({{.label = "too-big",
                                    .bytes = 1ull << 50,
                                    .needs_persistence = false,
                                    .mlp = 16.0,
                                    .read_fraction = 0.5,
                                    .hotness = 1.0}});
  EXPECT_FALSE(decisions[0].satisfied);
  EXPECT_EQ(decisions[0].memory, cxlpmem::simkit::kInvalidId);
}

TEST_F(TieringTest, PersistentAndImpossiblePersistentDiffer) {
  // Fits the CXL tier vs exceeds it.
  auto ok = advisor_.place({{.label = "cp",
                             .bytes = 8ull << 30,
                             .needs_persistence = true,
                             .mlp = 8.0,
                             .read_fraction = 0.5,
                             .hotness = 1.0}});
  EXPECT_TRUE(ok[0].satisfied);
  auto too_big = advisor_.place({{.label = "cp",
                                  .bytes = 32ull << 30,
                                  .needs_persistence = true,
                                  .mlp = 8.0,
                                  .read_fraction = 0.5,
                                  .hotness = 1.0}});
  EXPECT_FALSE(too_big[0].satisfied);
}

TEST_F(TieringTest, EmptyRequestListIsAFullySatisfiedPlan) {
  // The degenerate input the tierkv budget-derivation loop can produce:
  // nothing to place is vacuously satisfied, and the plan-level queries
  // hold up on an empty decision vector.
  const core::PlacementPlan plan = advisor_.plan({});
  EXPECT_TRUE(plan.decisions.empty());
  EXPECT_TRUE(plan.fully_satisfied());
  EXPECT_EQ(plan.unsatisfied_count(), 0u);
  EXPECT_EQ(plan.find("anything"), nullptr);
}

TEST_F(TieringTest, ExhaustedTierRefusesFurtherPersistentRequests) {
  // First request drains the durable (CXL) tier to zero capacity; the
  // second needs durability and must come back unsatisfied rather than be
  // silently parked on a volatile tier.
  const auto& tiers = advisor_.tiers();
  const std::uint64_t durable_bytes = tiers[2].capacity_bytes;
  const core::PlacementPlan plan =
      advisor_.plan({{.label = "fill",
                      .bytes = durable_bytes,
                      .needs_persistence = true,
                      .mlp = 8.0,
                      .read_fraction = 0.5,
                      .hotness = 5.0},
                     {.label = "overflow",
                      .bytes = 1ull << 20,
                      .needs_persistence = true,
                      .mlp = 8.0,
                      .read_fraction = 0.5,
                      .hotness = 1.0}});
  EXPECT_FALSE(plan.fully_satisfied());
  EXPECT_EQ(plan.unsatisfied_count(), 1u);
  ASSERT_NE(plan.find("fill"), nullptr);
  EXPECT_TRUE(plan.find("fill")->satisfied);
  ASSERT_NE(plan.find("overflow"), nullptr);
  EXPECT_FALSE(plan.find("overflow")->satisfied);
  EXPECT_EQ(plan.find("overflow")->memory, cxlpmem::simkit::kInvalidId);
}

TEST_F(TieringTest, RequestExceedingEveryTierFailsThePlan) {
  // Bigger than the machine: no tier can host it, fully_satisfied must go
  // false, and find() on a label that was never requested stays null.
  const core::PlacementPlan plan = advisor_.plan({{.label = "galactic",
                                                   .bytes = 1ull << 50,
                                                   .needs_persistence = false,
                                                   .mlp = 4.0,
                                                   .read_fraction = 0.9,
                                                   .hotness = 10.0}});
  ASSERT_EQ(plan.decisions.size(), 1u);
  EXPECT_FALSE(plan.fully_satisfied());
  EXPECT_EQ(plan.unsatisfied_count(), 1u);
  EXPECT_FALSE(plan.decisions[0].satisfied);
  EXPECT_EQ(plan.decisions[0].memory, cxlpmem::simkit::kInvalidId);
  EXPECT_EQ(plan.find("never-requested"), nullptr);
}

TEST_F(TieringTest, PlacementIsDeterministic) {
  std::vector<core::PlacementRequest> reqs;
  for (int i = 0; i < 8; ++i)
    reqs.push_back({.label = "r" + std::to_string(i),
                    .bytes = 4ull << 30,
                    .needs_persistence = (i % 3 == 0),
                    .mlp = static_cast<double>(1 + i % 4) * 4,
                    .read_fraction = 0.5,
                    .hotness = static_cast<double>(i % 5)});
  const auto a = advisor_.place(reqs);
  const auto b = advisor_.place(reqs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].memory, b[i].memory);
    EXPECT_EQ(a[i].satisfied, b[i].satisfied);
  }
}

}  // namespace

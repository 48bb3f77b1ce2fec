// Unit + property tests for the max-min fair (water-filling) solver —
// the component every reported bandwidth number flows through.
#include <gtest/gtest.h>

#include <random>

#include "simkit/waterfill.hpp"

namespace sk = cxlpmem::simkit;

namespace {

TEST(Waterfill, SingleFlowTakesFullCapacity) {
  const std::vector<sk::Resource> res{{"r", 10.0}};
  std::vector<sk::SolverFlow> flows(1);
  flows[0].usage = {{0, 1.0}};
  const auto a = sk::max_min_fair(res, flows);
  EXPECT_DOUBLE_EQ(a.rates_gbs[0], 10.0);
  EXPECT_DOUBLE_EQ(a.utilization[0], 1.0);
}

TEST(Waterfill, EqualFlowsShareEqually) {
  const std::vector<sk::Resource> res{{"r", 12.0}};
  std::vector<sk::SolverFlow> flows(4);
  for (auto& f : flows) f.usage = {{0, 1.0}};
  const auto a = sk::max_min_fair(res, flows);
  for (const double r : a.rates_gbs) EXPECT_DOUBLE_EQ(r, 3.0);
}

TEST(Waterfill, CoefficientScalesConsumption) {
  // Flow 1 consumes twice the resource per unit rate -> smaller rate, but
  // max-min gives both the same rate until the resource saturates.
  const std::vector<sk::Resource> res{{"r", 9.0}};
  std::vector<sk::SolverFlow> flows(2);
  flows[0].usage = {{0, 1.0}};
  flows[1].usage = {{0, 2.0}};
  const auto a = sk::max_min_fair(res, flows);
  EXPECT_DOUBLE_EQ(a.rates_gbs[0], 3.0);
  EXPECT_DOUBLE_EQ(a.rates_gbs[1], 3.0);
}

TEST(Waterfill, CappedFlowFreesHeadroomForOthers) {
  const std::vector<sk::Resource> res{{"r", 10.0}};
  std::vector<sk::SolverFlow> flows(2);
  flows[0].usage = {{0, 1.0}};
  flows[0].rate_cap_gbs = 2.0;
  flows[1].usage = {{0, 1.0}};
  const auto a = sk::max_min_fair(res, flows);
  EXPECT_DOUBLE_EQ(a.rates_gbs[0], 2.0);
  EXPECT_DOUBLE_EQ(a.rates_gbs[1], 8.0);
}

TEST(Waterfill, CapOnlyFlowNeedsNoResource) {
  std::vector<sk::SolverFlow> flows(1);
  flows[0].rate_cap_gbs = 5.0;
  const auto a = sk::max_min_fair({}, flows);
  EXPECT_DOUBLE_EQ(a.rates_gbs[0], 5.0);
}

TEST(Waterfill, TwoBottlenecks) {
  // Flow 0 uses r0 only; flows 1,2 use both.  r1 is the tighter bottleneck
  // for them; flow 0 then picks up the slack on r0.
  const std::vector<sk::Resource> res{{"r0", 10.0}, {"r1", 4.0}};
  std::vector<sk::SolverFlow> flows(3);
  flows[0].usage = {{0, 1.0}};
  flows[1].usage = {{0, 1.0}, {1, 1.0}};
  flows[2].usage = {{0, 1.0}, {1, 1.0}};
  const auto a = sk::max_min_fair(res, flows);
  EXPECT_DOUBLE_EQ(a.rates_gbs[1], 2.0);
  EXPECT_DOUBLE_EQ(a.rates_gbs[2], 2.0);
  EXPECT_DOUBLE_EQ(a.rates_gbs[0], 6.0);
}

TEST(Waterfill, RejectsInvalidInputs) {
  EXPECT_THROW(sk::max_min_fair({{"r", 0.0}}, {}), std::invalid_argument);
  std::vector<sk::SolverFlow> unbounded(1);
  EXPECT_THROW(sk::max_min_fair({}, unbounded), std::invalid_argument);
  std::vector<sk::SolverFlow> bad_ref(1);
  bad_ref[0].usage = {{3, 1.0}};
  EXPECT_THROW(sk::max_min_fair({{"r", 1.0}}, bad_ref),
               std::invalid_argument);
  std::vector<sk::SolverFlow> bad_coeff(1);
  bad_coeff[0].usage = {{0, -1.0}};
  EXPECT_THROW(sk::max_min_fair({{"r", 1.0}}, bad_coeff),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property tests: random instances, solver invariants I1-I4 (waterfill.hpp).
// ---------------------------------------------------------------------------

struct Instance {
  std::vector<sk::Resource> resources;
  std::vector<sk::SolverFlow> flows;
};

Instance random_instance(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> nres(1, 6);
  std::uniform_int_distribution<int> nflow(1, 24);
  std::uniform_real_distribution<double> cap(1.0, 50.0);
  std::uniform_real_distribution<double> coeff(0.1, 3.0);
  std::uniform_real_distribution<double> fcap(0.5, 30.0);
  std::bernoulli_distribution has_cap(0.4);

  Instance inst;
  const int nr = nres(rng);
  for (int r = 0; r < nr; ++r)
    inst.resources.push_back({"r" + std::to_string(r), cap(rng)});
  const int nf = nflow(rng);
  for (int f = 0; f < nf; ++f) {
    sk::SolverFlow flow;
    std::uniform_int_distribution<int> nuse(1, nr);
    const int uses = nuse(rng);
    std::vector<int> ids(nr);
    for (int i = 0; i < nr; ++i) ids[i] = i;
    std::shuffle(ids.begin(), ids.end(), rng);
    for (int u = 0; u < uses; ++u)
      flow.usage.emplace_back(ids[u], coeff(rng));
    if (has_cap(rng)) flow.rate_cap_gbs = fcap(rng);
    inst.flows.push_back(std::move(flow));
  }
  return inst;
}

class WaterfillProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WaterfillProperty, FeasibilityCapsAndBottlenecks) {
  const Instance inst = random_instance(GetParam());
  const auto a = sk::max_min_fair(inst.resources, inst.flows);

  // I1: no resource overcommitted.
  std::vector<double> used(inst.resources.size(), 0.0);
  for (std::size_t f = 0; f < inst.flows.size(); ++f)
    for (const auto& [r, c] : inst.flows[f].usage)
      used[r] += c * a.rates_gbs[f];
  for (std::size_t r = 0; r < inst.resources.size(); ++r)
    EXPECT_LE(used[r], inst.resources[r].capacity_gbs * (1 + 1e-9));

  // I2: per-flow caps respected; rates non-negative.
  for (std::size_t f = 0; f < inst.flows.size(); ++f) {
    EXPECT_GE(a.rates_gbs[f], 0.0);
    if (inst.flows[f].rate_cap_gbs != sk::kUnbounded) {
      EXPECT_LE(a.rates_gbs[f], inst.flows[f].rate_cap_gbs * (1 + 1e-9));
    }
  }

  // I3: every flow is at its cap or touches a saturated resource.
  for (std::size_t f = 0; f < inst.flows.size(); ++f) {
    const bool at_cap =
        inst.flows[f].rate_cap_gbs != sk::kUnbounded &&
        a.rates_gbs[f] >= inst.flows[f].rate_cap_gbs * (1 - 1e-6);
    bool on_saturated = false;
    for (const auto& [r, c] : inst.flows[f].usage)
      if (used[r] >= inst.resources[r].capacity_gbs * (1 - 1e-6))
        on_saturated = true;
    EXPECT_TRUE(at_cap || on_saturated)
        << "flow " << f << " is not bottlenecked";
  }
}

TEST_P(WaterfillProperty, Deterministic) {
  const Instance inst = random_instance(GetParam());
  const auto a = sk::max_min_fair(inst.resources, inst.flows);
  const auto b = sk::max_min_fair(inst.resources, inst.flows);
  EXPECT_EQ(a.rates_gbs, b.rates_gbs);
}

TEST_P(WaterfillProperty, MaxMinFairness) {
  // I4 (uniform-coefficient specialization): among uncapped flows with
  // identical usage vectors, rates are equal.
  const Instance inst = random_instance(GetParam());
  const auto a = sk::max_min_fair(inst.resources, inst.flows);
  for (std::size_t i = 0; i < inst.flows.size(); ++i)
    for (std::size_t j = i + 1; j < inst.flows.size(); ++j) {
      if (inst.flows[i].rate_cap_gbs != sk::kUnbounded) continue;
      if (inst.flows[j].rate_cap_gbs != sk::kUnbounded) continue;
      if (inst.flows[i].usage != inst.flows[j].usage) continue;
      EXPECT_NEAR(a.rates_gbs[i], a.rates_gbs[j],
                  1e-9 * (1.0 + a.rates_gbs[i]));
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, WaterfillProperty,
                         ::testing::Range(1u, 41u));

}  // namespace

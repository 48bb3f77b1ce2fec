// core/tiering.hpp — data-placement advisor for hybrid DRAM/CXL/PMem
// machines.
//
// Paper §1.3: "efficient data placement and movement strategies are crucial
// to minimize the impact of network latencies and ensure that
// data-intensive workloads can effectively utilize CXL-based disaggregated
// memory"; §6 proposes hybrid DDR/PMem/CXL architectures.  TierAdvisor
// turns those sentences into an algorithm:
//
//   * every memory device becomes a tier with measured properties
//     (latency, saturated bandwidth via the machine model, capacity) and
//     the durability its caller passes in (api::Runtime: each namespace's
//     own domain, so a tier is durable exactly when a pool on it is);
//   * an allocation request carries requirements (bytes, persistence,
//     access pattern = MLP, read fraction) and a hotness weight;
//   * place() fills requests in hotness order, scoring each tier by
//     modelled achievable bandwidth for THAT access pattern (so
//     latency-bound requests avoid far memory even when STREAM numbers
//     look fine), subject to capacity and durability constraints.
//
// The advisor is deliberately mechanism-free: it returns a placement plan;
// executing it is the caller's business (pools for persistent data,
// membind for volatile data).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/persist_domain.hpp"
#include "simkit/bwmodel.hpp"
#include "simkit/topology.hpp"

namespace cxlpmem::core {

/// One placement candidate (a memory device viewed from a socket).
struct Tier {
  simkit::MemoryId memory = 0;
  std::string name;
  double idle_latency_ns = 0.0;
  double saturated_gbs = 0.0;  ///< streaming ceiling from the model
  std::uint64_t capacity_bytes = 0;
  bool durable = false;
};

/// What an allocation needs.
struct PlacementRequest {
  std::string label;
  std::uint64_t bytes = 0;
  bool needs_persistence = false;
  /// Access pattern: outstanding misses the workload can sustain
  /// (1 = pointer chasing .. 16 = streaming).
  double mlp = 16.0;
  double read_fraction = 0.67;
  /// Relative importance; hotter requests get first pick.
  double hotness = 1.0;
};

struct PlacementDecision {
  PlacementRequest request;
  simkit::MemoryId memory = simkit::kInvalidId;
  std::string tier_name;
  /// Modelled per-thread bandwidth for this request on the chosen tier.
  double expected_gbs = 0.0;
  bool satisfied = false;  ///< false when nothing could host it
};

/// The advisor's answer as one value: every decision (hotness-descending)
/// plus plan-level queries, so callers don't re-derive "did everything
/// fit?" from the vector.
struct PlacementPlan {
  std::vector<PlacementDecision> decisions;

  [[nodiscard]] bool fully_satisfied() const noexcept {
    for (const auto& d : decisions)
      if (!d.satisfied) return false;
    return true;
  }
  [[nodiscard]] std::size_t unsatisfied_count() const noexcept {
    std::size_t n = 0;
    for (const auto& d : decisions) n += d.satisfied ? 0 : 1;
    return n;
  }
  /// The decision for a request label, or nullptr.
  [[nodiscard]] const PlacementDecision* find(std::string_view label)
      const noexcept {
    for (const auto& d : decisions)
      if (d.request.label == label) return &d;
    return nullptr;
  }
};

class TierAdvisor {
 public:
  /// Builds tiers from every memory device of `machine`, probing each with
  /// the bandwidth model from `viewpoint_socket`.  `domains[m]` is memory
  /// m's persistence domain (one per memory, else std::invalid_argument).
  TierAdvisor(const simkit::Machine& machine,
              simkit::SocketId viewpoint_socket,
              const std::vector<PersistenceDomain>& domains);

  [[nodiscard]] const std::vector<Tier>& tiers() const noexcept {
    return tiers_;
  }

  /// Places every request (hotness-descending), decrementing tier capacity
  /// as it goes.  Deterministic.  Requests that fit nowhere come back with
  /// satisfied == false.
  [[nodiscard]] std::vector<PlacementDecision> place(
      std::vector<PlacementRequest> requests) const;

  /// place() packaged as a PlacementPlan.
  [[nodiscard]] PlacementPlan plan(
      std::vector<PlacementRequest> requests) const {
    return PlacementPlan{place(std::move(requests))};
  }

  /// Modelled single-thread bandwidth of `request` on `tier` (the scoring
  /// function, exposed for tests and ablations).
  [[nodiscard]] double score(const Tier& tier,
                             const PlacementRequest& request) const;

 private:
  const simkit::Machine* machine_;
  simkit::SocketId viewpoint_;
  std::vector<Tier> tiers_;
};

}  // namespace cxlpmem::core

#include "core/tiering.hpp"

#include <algorithm>
#include <stdexcept>

namespace cxlpmem::core {

namespace {

/// Single-flow model probe: one thread of the given pattern on `memory`.
double probe_gbs(const simkit::Machine& machine, simkit::SocketId socket,
                 simkit::MemoryId memory, double mlp, double read_fraction) {
  const simkit::BandwidthModel model(machine);
  simkit::TrafficSpec spec;
  spec.core = machine.cores_of_socket(socket).front();
  spec.memory = memory;
  spec.traffic = {.read_frac = read_fraction,
                  .write_frac = 1.0 - read_fraction,
                  .write_allocate = true};
  spec.mlp_override = mlp;
  spec.working_set_bytes = 0;  // capacity pressure handled separately
  return model.solve({spec}).total_gbs;
}

/// Streaming ceiling: all of the socket's cores at full MLP.
double saturated_gbs(const simkit::Machine& machine,
                     simkit::SocketId socket, simkit::MemoryId memory) {
  const simkit::BandwidthModel model(machine);
  std::vector<simkit::TrafficSpec> specs;
  for (const simkit::CoreId c : machine.cores_of_socket(socket)) {
    simkit::TrafficSpec spec;
    spec.core = c;
    spec.memory = memory;
    spec.traffic = simkit::kernel_traffic::kTriad;
    specs.push_back(spec);
  }
  return model.solve(specs).total_gbs;
}

}  // namespace

TierAdvisor::TierAdvisor(const simkit::Machine& machine,
                         simkit::SocketId viewpoint_socket,
                         const std::vector<PersistenceDomain>& domains)
    : machine_(&machine), viewpoint_(viewpoint_socket) {
  if (domains.size() != static_cast<std::size_t>(machine.memory_count()))
    throw std::invalid_argument("TierAdvisor needs one domain per memory");
  for (simkit::MemoryId m = 0; m < machine.memory_count(); ++m) {
    const simkit::MemoryDesc& desc = machine.memory(m);
    Tier t;
    t.memory = m;
    t.name = desc.name;
    t.idle_latency_ns =
        simkit::resolve_route(machine, viewpoint_socket, m).latency_ns;
    t.saturated_gbs = saturated_gbs(machine, viewpoint_socket, m);
    t.capacity_bytes = desc.capacity_bytes;
    t.durable = core::durable(domains[static_cast<std::size_t>(m)]);
    tiers_.push_back(std::move(t));
  }
}

double TierAdvisor::score(const Tier& tier,
                          const PlacementRequest& request) const {
  return probe_gbs(*machine_, viewpoint_, tier.memory, request.mlp,
                   request.read_fraction);
}

std::vector<PlacementDecision> TierAdvisor::place(
    std::vector<PlacementRequest> requests) const {
  // Hottest first; stable for equal hotness (input order preserved).
  std::stable_sort(requests.begin(), requests.end(),
                   [](const PlacementRequest& a, const PlacementRequest& b) {
                     return a.hotness > b.hotness;
                   });

  std::vector<std::uint64_t> remaining;
  remaining.reserve(tiers_.size());
  for (const Tier& t : tiers_) remaining.push_back(t.capacity_bytes);

  std::vector<PlacementDecision> out;
  out.reserve(requests.size());
  for (const PlacementRequest& req : requests) {
    PlacementDecision d;
    d.request = req;
    double best = -1.0;
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
      const Tier& t = tiers_[i];
      if (req.needs_persistence && !t.durable) continue;
      if (remaining[i] < req.bytes) continue;
      const double s = score(t, req);
      if (s > best) {
        best = s;
        d.memory = t.memory;
        d.tier_name = t.name;
        d.expected_gbs = s;
        d.satisfied = true;
      }
    }
    if (d.satisfied) {
      for (std::size_t i = 0; i < tiers_.size(); ++i)
        if (tiers_[i].memory == d.memory) remaining[i] -= req.bytes;
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace cxlpmem::core

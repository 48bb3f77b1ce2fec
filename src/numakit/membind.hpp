// numakit/membind.hpp — memory placement policies (the numactl vocabulary).
//
// `numactl --membind=N` pins every allocation of the process to node N;
// `--interleave` stripes pages round-robin.  The model needs only the
// *placement* outcome: which memory device(s) carry what fraction of an
// allocation's traffic.  resolve_placement() computes exactly that, and the
// STREAM layer feeds the shares into the bandwidth model.
#pragma once

#include <stdexcept>
#include <utility>
#include <vector>

#include "numakit/numa_topology.hpp"

namespace cxlpmem::numakit {

enum class MemBindKind {
  Bind,        ///< all pages on one node (numactl --membind)
  Interleave,  ///< pages striped over a node set (numactl --interleave)
};

struct MemBindPolicy {
  MemBindKind kind = MemBindKind::Bind;
  std::vector<int> nodes;  ///< one node for Bind; >=1 for Interleave

  [[nodiscard]] static MemBindPolicy bind(int node) {
    return MemBindPolicy{MemBindKind::Bind, {node}};
  }
  [[nodiscard]] static MemBindPolicy interleave(std::vector<int> nodes) {
    return MemBindPolicy{MemBindKind::Interleave, std::move(nodes)};
  }
};

/// Which device carries what fraction of an allocation under `policy`.
struct Placement {
  std::vector<std::pair<simkit::MemoryId, double>> shares;
};

[[nodiscard]] inline Placement resolve_placement(const NumaTopology& topo,
                                                 const MemBindPolicy& policy) {
  if (policy.nodes.empty())
    throw std::invalid_argument("membind policy needs at least one node");
  Placement p;
  switch (policy.kind) {
    case MemBindKind::Bind:
      if (policy.nodes.size() != 1)
        throw std::invalid_argument("bind takes exactly one node");
      p.shares.emplace_back(topo.memory_of_node(policy.nodes.front()), 1.0);
      break;
    case MemBindKind::Interleave: {
      const double share = 1.0 / static_cast<double>(policy.nodes.size());
      for (const int n : policy.nodes)
        p.shares.emplace_back(topo.memory_of_node(n), share);
      break;
    }
  }
  return p;
}

}  // namespace cxlpmem::numakit

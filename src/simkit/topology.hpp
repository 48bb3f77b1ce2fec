// simkit/topology.hpp — the machine description the bandwidth model runs on.
//
// A Machine is a static datastructure: sockets containing cores, memory
// devices attached either to a socket's integrated memory controller or to
// the end of a link chain (CXL), and links connecting sockets to each other
// (UPI) and to off-socket devices (PCIe/CXL).  It is deliberately a plain
// description; all behaviour lives in route.hpp / bwmodel.hpp.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "simkit/types.hpp"

namespace cxlpmem::simkit {

/// A CPU socket.  `mlp_lines` is the per-core memory-level parallelism
/// (sustained outstanding cachelines, LFB-bound); `l3_bytes` feeds the
/// streaming cache-filter model.
struct SocketDesc {
  std::string name;
  int cores = 0;
  double mlp_lines = 10.0;
  std::uint64_t l3_bytes = 0;
  double base_freq_ghz = 2.0;
};

/// A memory device (a DIMM set behind one controller, or a CXL expander's
/// media).  Peak bandwidths are *realizable* stream bandwidths of the media,
/// i.e. pin rate times a media efficiency — the solver treats them as hard
/// capacities.
struct MemoryDesc {
  std::string name;
  MemoryKind kind = MemoryKind::DramDdr4;
  /// Socket whose IMC hosts the device, or kInvalidId when the device is
  /// reached through links (CXL / off-node).
  SocketId home_socket = kInvalidId;
  double peak_read_gbs = 0.0;
  double peak_write_gbs = 0.0;
  /// Optional cap on read+write together, modelling a device controller
  /// that saturates below the sum of its media channels (the paper's FPGA
  /// soft IP).  Shared by every head of a multi-headed device.  0 = none.
  double peak_combined_gbs = 0.0;
  double idle_latency_ns = 100.0;
  std::uint64_t capacity_bytes = 0;
  /// True when the device sits in a persistence domain (battery/ADR): stores
  /// that reach it survive crashes.  Consumed by core/persist_domain.
  bool persistent = false;
};

/// A directional-pair interconnect link.  Capacities are per direction
/// (full duplex), already de-rated by protocol efficiency.
struct LinkDesc {
  std::string name;
  LinkKind kind = LinkKind::Upi;
  SocketId a = kInvalidId;  ///< endpoint A: always a socket
  /// Endpoint B: a socket (UPI) — or kInvalidId when the link leads to
  /// link-attached memory devices (CXL endpoints enumerate via `attached`).
  SocketId b = kInvalidId;
  double peak_tx_gbs = 0.0;  ///< A -> B direction
  double peak_rx_gbs = 0.0;  ///< B -> A direction
  /// Optional cap on tx+rx together.  Models endpoints whose controller
  /// saturates below the wire rate (the paper's FPGA soft IP).  0 = no cap.
  double peak_combined_gbs = 0.0;
  double latency_ns = 0.0;  ///< added round-trip latency per traversal
  /// Memory devices reachable through this link (CXL expanders).
  std::vector<MemoryId> attached;
};

/// Immutable machine model.  Build once via the fluent adders, then hand to
/// the routing/bandwidth layers.  Throws std::invalid_argument on
/// inconsistent wiring, so a constructed Machine is always routable.
class Machine {
 public:
  Machine() = default;

  SocketId add_socket(SocketDesc s) {
    if (s.cores <= 0) throw std::invalid_argument("socket needs cores");
    const SocketId id = static_cast<SocketId>(sockets_.size());
    for (int c = 0; c < s.cores; ++c) {
      core_socket_.push_back(id);
    }
    sockets_.push_back(std::move(s));
    return id;
  }

  MemoryId add_memory(MemoryDesc m) {
    if (m.peak_read_gbs <= 0 || m.peak_write_gbs <= 0)
      throw std::invalid_argument("memory needs positive peak bandwidth");
    if (m.home_socket != kInvalidId) validate_socket(m.home_socket);
    const MemoryId id = static_cast<MemoryId>(memories_.size());
    memories_.push_back(std::move(m));
    return id;
  }

  LinkId add_link(LinkDesc l) {
    validate_socket(l.a);
    if (l.b != kInvalidId) validate_socket(l.b);
    for (MemoryId m : l.attached) {
      validate_memory(m);
      if (memories_[m].home_socket != kInvalidId)
        throw std::invalid_argument(
            "link-attached memory must not have a home socket");
    }
    if (l.b == kInvalidId && l.attached.empty())
      throw std::invalid_argument("dangling link: no socket, no memory");
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.push_back(std::move(l));
    return id;
  }

  [[nodiscard]] int socket_count() const noexcept {
    return static_cast<int>(sockets_.size());
  }
  [[nodiscard]] int core_count() const noexcept {
    return static_cast<int>(core_socket_.size());
  }
  [[nodiscard]] int memory_count() const noexcept {
    return static_cast<int>(memories_.size());
  }
  [[nodiscard]] int link_count() const noexcept {
    return static_cast<int>(links_.size());
  }

  [[nodiscard]] const SocketDesc& socket(SocketId s) const {
    validate_socket(s);
    return sockets_[s];
  }
  [[nodiscard]] const MemoryDesc& memory(MemoryId m) const {
    validate_memory(m);
    return memories_[m];
  }
  [[nodiscard]] const LinkDesc& link(LinkId l) const {
    validate_link(l);
    return links_[l];
  }

  /// Socket that owns core `c`.  Cores are numbered socket-major: socket 0
  /// holds cores [0, n0), socket 1 holds [n0, n0+n1), ... — matching how the
  /// paper's setups expose cores 0-9 / 10-19.
  [[nodiscard]] SocketId socket_of_core(CoreId c) const {
    if (c < 0 || c >= core_count())
      throw std::out_of_range("core id out of range");
    return core_socket_[c];
  }

  /// All core ids belonging to socket `s`, ascending.
  [[nodiscard]] std::vector<CoreId> cores_of_socket(SocketId s) const {
    validate_socket(s);
    std::vector<CoreId> out;
    for (CoreId c = 0; c < core_count(); ++c)
      if (core_socket_[c] == s) out.push_back(c);
    return out;
  }

  /// Memory devices homed on socket `s` (IMC-attached).
  [[nodiscard]] std::vector<MemoryId> memories_of_socket(SocketId s) const {
    validate_socket(s);
    std::vector<MemoryId> out;
    for (MemoryId m = 0; m < memory_count(); ++m)
      if (memories_[m].home_socket == s) out.push_back(m);
    return out;
  }

  /// The link through which link-attached memory `m` is reached, or
  /// kInvalidId for IMC-attached memory.  A multi-headed device may be
  /// reachable through several links; this returns the first.
  [[nodiscard]] LinkId link_of_memory(MemoryId m) const {
    const auto links = links_of_memory(m);
    return links.empty() ? kInvalidId : links.front();
  }

  /// Every link attaching memory `m` (multi-headed devices have several).
  [[nodiscard]] std::vector<LinkId> links_of_memory(MemoryId m) const {
    validate_memory(m);
    std::vector<LinkId> out;
    for (LinkId l = 0; l < link_count(); ++l)
      for (MemoryId a : links_[l].attached)
        if (a == m) out.push_back(l);
    return out;
  }

  /// The UPI link between sockets `a` and `b`, or kInvalidId.
  [[nodiscard]] LinkId socket_link(SocketId a, SocketId b) const {
    validate_socket(a);
    validate_socket(b);
    for (LinkId l = 0; l < link_count(); ++l) {
      const LinkDesc& d = links_[l];
      if (d.b == kInvalidId) continue;
      if ((d.a == a && d.b == b) || (d.a == b && d.b == a)) return l;
    }
    return kInvalidId;
  }

 private:
  void validate_socket(SocketId s) const {
    if (s < 0 || s >= socket_count())
      throw std::out_of_range("socket id out of range");
  }
  void validate_memory(MemoryId m) const {
    if (m < 0 || m >= memory_count())
      throw std::out_of_range("memory id out of range");
  }
  void validate_link(LinkId l) const {
    if (l < 0 || l >= link_count())
      throw std::out_of_range("link id out of range");
  }

  std::vector<SocketDesc> sockets_;
  std::vector<MemoryDesc> memories_;
  std::vector<LinkDesc> links_;
  std::vector<SocketId> core_socket_;
};

/// Flattened performance/identity summary of one memory device as seen from
/// software: media peaks, load-to-use latency *including* the link for
/// link-attached devices, and how the device is reached.  This is the
/// profile a MemorySpace handle carries up through the api facade so pool
/// users can reason about the backend they were bound to.  Durability is
/// not part of it: MemorySpace::domain is the namespace's one answer.
struct MemoryProfile {
  std::string name;
  MemoryKind kind = MemoryKind::DramDdr4;
  bool link_attached = false;  ///< reached through a CXL/PCIe link
  double peak_read_gbs = 0.0;
  double peak_write_gbs = 0.0;
  double peak_combined_gbs = 0.0;  ///< 0 = no combined ceiling
  double idle_latency_ns = 0.0;    ///< media + link traversal
  std::uint64_t capacity_bytes = 0;
};

/// Builds the profile of memory `m`, folding the first attaching link's
/// latency and combined ceiling into the media numbers.
[[nodiscard]] inline MemoryProfile profile_of(const Machine& machine,
                                              MemoryId m) {
  const MemoryDesc& mem = machine.memory(m);
  MemoryProfile p;
  p.name = mem.name;
  p.kind = mem.kind;
  p.link_attached = mem.home_socket == kInvalidId;
  p.peak_read_gbs = mem.peak_read_gbs;
  p.peak_write_gbs = mem.peak_write_gbs;
  p.peak_combined_gbs = mem.peak_combined_gbs;
  p.idle_latency_ns = mem.idle_latency_ns;
  p.capacity_bytes = mem.capacity_bytes;
  if (p.link_attached) {
    const LinkId l = machine.link_of_memory(m);
    if (l != kInvalidId) {
      const LinkDesc& link = machine.link(l);
      p.idle_latency_ns += link.latency_ns;
      if (link.peak_combined_gbs > 0.0 &&
          (p.peak_combined_gbs == 0.0 ||
           link.peak_combined_gbs < p.peak_combined_gbs))
        p.peak_combined_gbs = link.peak_combined_gbs;
    }
  }
  return p;
}

}  // namespace cxlpmem::simkit

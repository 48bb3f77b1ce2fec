// cxlsim/fpga_proto.hpp — the paper's FPGA prototype (§2.2) as a device
// profile: Intel Agilex 7 I-Series with R-Tile CXL IP, two on-board 8 GB
// DDR4-1333 modules, PCIe Gen5 x16 to the host.
//
// The prototype's distinctive properties the model encodes:
//   * media ceiling well below the wire rate (soft-IP memory controller);
//   * high load-to-use latency (soft-IP transaction layer);
//   * battery-backable -> persistence domain;
//   * multi-headed: the same HDM region can be exposed to two NUMA hosts
//     with NO hardware coherence between them (applications own coherency —
//     paper §2.2 last paragraph).
#pragma once

#include <memory>

#include "cxlsim/device.hpp"
#include "cxlsim/transaction.hpp"

namespace cxlpmem::cxlsim {

/// Configuration matching paper §2.2 and the calibrated profile constants
/// (simkit/profiles.hpp cites the derivation).
[[nodiscard]] inline Type3Config fpga_prototype_config() {
  Type3Config c;
  c.name = "agilex7-rtile-cxl";
  c.capacity_bytes = 16ull << 30;   // 2 x 8 GB DDR4-1333
  c.persistent_bytes = 16ull << 30; // fully persistent when battery-backed
  c.lsa_bytes = 1ull << 20;
  c.battery_backed = true;
  c.timing.media_read_gbs = 13.5;
  c.timing.media_write_gbs = 12.0;
  c.timing.media_latency_ns = 200.0;
  c.timing.controller_combined_gbs = 16.5;
  c.timing.max_tags = 512;
  return c;
}

[[nodiscard]] inline std::unique_ptr<Type3Device> make_fpga_prototype() {
  return std::make_unique<Type3Device>(fpga_prototype_config());
}

/// DES parameters for the prototype's link + controller.
[[nodiscard]] inline DesParams fpga_prototype_des_params() {
  DesParams p;
  p.link = LinkParams{};  // PCIe 5.0 x16
  p.propagation_ns = 50.0;
  p.controller_ns = 150.0;
  p.timing = fpga_prototype_config().timing;
  return p;
}

/// A multi-headed view: two logical heads over one device, modelling the
/// paper's "same far memory segment made available to two distinct NUMA
/// nodes".  Coherence between heads is the application's problem; the class
/// only hands out the shared media and head count.
class MultiHeadedExpander {
 public:
  explicit MultiHeadedExpander(Type3Config config, int heads = 2)
      : device_(std::make_unique<Type3Device>(std::move(config))),
        heads_(heads) {
    if (heads < 1 || heads > 8)
      throw std::invalid_argument("1..8 heads supported");
  }

  [[nodiscard]] Type3Device& device() noexcept { return *device_; }
  [[nodiscard]] int heads() const noexcept { return heads_; }

  /// Both heads see the same DPA space — by construction, the identity map.
  /// (Address overlap concerns disappear; coherency does not.)
  [[nodiscard]] std::span<std::byte> media_for_head(int head) {
    if (head < 0 || head >= heads_)
      throw std::out_of_range("no such head");
    return device_->media();
  }

 private:
  std::unique_ptr<Type3Device> device_;
  int heads_;
};

}  // namespace cxlpmem::cxlsim

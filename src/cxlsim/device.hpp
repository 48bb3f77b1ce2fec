// cxlsim/device.hpp — a CXL Type-3 (memory expander) endpoint.
//
// Combines the pieces a host interacts with:
//   * a mailbox (repartition / LSA)                            — mailbox
//   * device media: byte-addressable storage the host maps directly
//     (the HDM-mapped region)
//   * timing parameters used by the DES and the analytic model
//
// The media is backed by a sparse anonymous mapping, so a 16 GiB device
// costs only the pages actually touched.  The `battery_backed` flag makes
// the whole device a persistence domain: the paper's central premise
// ("potentially backed by battery, like previous battery-backed DIMMs").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cxlsim/mailbox.hpp"

namespace cxlpmem::cxlsim {

/// Timing/bandwidth character of the device, consumed by the DES and by the
/// machine-model builders.
struct DeviceTiming {
  double media_read_gbs = 13.5;
  double media_write_gbs = 12.0;
  /// Fixed (pipelined) media access latency per operation.  Together with
  /// the link propagation and soft-IP processing this composes the ~455 ns
  /// idle load-to-use of the prototype (simkit profile: 350 device + 110
  /// link).
  double media_latency_ns = 200.0;
  double controller_combined_gbs = 16.5;  ///< soft-IP ceiling (0 = none)
  int max_tags = 512;  ///< outstanding CXL.mem transactions
};

struct Type3Config {
  std::string name = "cxl-type3";
  std::uint64_t capacity_bytes = 16ull << 30;
  /// Initial persistent fraction of capacity (partitionable via mailbox).
  std::uint64_t persistent_bytes = 16ull << 30;
  std::uint64_t lsa_bytes = 1ull << 20;
  bool battery_backed = true;
  DeviceTiming timing;
};

class Type3Device {
 public:
  explicit Type3Device(Type3Config config);
  ~Type3Device();
  Type3Device(const Type3Device&) = delete;
  Type3Device& operator=(const Type3Device&) = delete;

  [[nodiscard]] const Type3Config& config() const noexcept { return config_; }

  /// Whole-device persistence domain?  True battery-backed devices keep
  /// CXL.mem-written data across power loss (paper §1.4).
  [[nodiscard]] bool persistence_domain() const noexcept {
    return config_.battery_backed;
  }

  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return config_.capacity_bytes;
  }
  [[nodiscard]] std::uint64_t persistent_capacity() const noexcept {
    return persistent_bytes_;
  }
  [[nodiscard]] std::uint64_t volatile_capacity() const noexcept {
    return config_.capacity_bytes - persistent_bytes_;
  }

  /// Direct media view for the host runtime (the HDM-mapped region).
  [[nodiscard]] std::span<std::byte> media() noexcept;

  // --- mailbox -----------------------------------------------------------------
  MboxResult execute(MboxOpcode opcode, std::span<const std::uint8_t> input);

 private:
  Type3Config config_;
  std::uint64_t persistent_bytes_;
  std::byte* media_ = nullptr;  ///< sparse anonymous mapping
  std::vector<std::uint8_t> lsa_;
};

}  // namespace cxlpmem::cxlsim

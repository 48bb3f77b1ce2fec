// api/runtime_builder.hpp — RuntimeBuilder: fluent, validated construction
// of the facade Runtime.
//
// Replaces raw Exposure-vector construction.  Two entry styles:
//
//   // 1. Describe a machine from scratch:
//   auto rt = RuntimeBuilder()
//                 .base_dir(dir)
//                 .socket_dram({.name = "ddr5-s0"})   // socket + its DIMM
//                 .as_emulated_pmem("pmem0")          // ...exposed as PMem
//                 .socket_dram({.name = "ddr5-s1"})
//                 .as_emulated_pmem("pmem1")
//                 .upi()
//                 .cxl_expander({.name = "cxl-fpga"})
//                 .as_dax("pmem2")
//                 .as_memory_mode()
//                 .attach_device(cxlsim::make_fpga_prototype())
//                 .build();                           // -> Result<Runtime>
//
//   // 2. Start from the paper's calibrated machines:
//   auto rt = RuntimeBuilder::setup_one().base_dir(dir).build();
//
// Exposure modifiers (as_emulated_pmem / as_dax / as_memory_mode /
// attach_device) apply to the most recently added memory — or to an
// explicitly chosen one via select_memory().  build() validates the whole
// description (duplicate namespace names, device/machine capacity mismatch,
// Memory Mode on non-link-attached memory, ...) and returns Result instead
// of throwing; the first recorded problem wins.
//
// setup_one()/setup_two() are the one way to build the paper's two
// machines, validated like any other description.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/result.hpp"
#include "api/runtime.hpp"
#include "core/runtime.hpp"
#include "cxlsim/device.hpp"
#include "simkit/profiles.hpp"

namespace cxlpmem::api {

/// One socket plus the DRAM behind its IMC.  Defaults are the paper's
/// Setup #1 Sapphire-Rapids socket with one DDR5-4800 DIMM.
struct SocketDramSpec {
  std::string name = "socket";
  int cores = 10;
  double mlp_lines = simkit::profiles::kSprMlpLines;
  std::uint64_t l3_bytes = simkit::profiles::kSprL3Bytes;
  double base_freq_ghz = 2.0;
  simkit::MemoryKind dram_kind = simkit::MemoryKind::DramDdr5;
  double read_gbs = simkit::profiles::kDdr5ReadGbs;
  double write_gbs = simkit::profiles::kDdr5WriteGbs;
  double idle_latency_ns = simkit::profiles::kDdr5IdleLatencyNs;
  std::uint64_t capacity_bytes = 64ull << 30;
};

/// A socket-to-socket interconnect.  Defaults are SPR UPI.
struct UpiSpec {
  simkit::SocketId a = 0;
  simkit::SocketId b = 1;
  double gbs = simkit::profiles::kSprUpiGbs;
  double latency_ns = simkit::profiles::kSprUpiLatencyNs;
};

/// A link-attached CXL Type-3 expander: media + the link carrying CXL.mem.
/// Defaults are the paper's FPGA prototype behind PCIe Gen5 x16.
struct CxlExpanderSpec {
  std::string name = "cxl";
  simkit::SocketId attach_socket = 0;
  double media_read_gbs = simkit::profiles::kCxlFpgaReadGbs;
  double media_write_gbs = simkit::profiles::kCxlFpgaWriteGbs;
  double media_latency_ns = simkit::profiles::kCxlFpgaIdleLatencyNs;
  double combined_gbs = simkit::profiles::kCxlFpgaCombinedGbs;
  double link_gbs = simkit::profiles::kCxlLinkDirGbs;
  double link_latency_ns = simkit::profiles::kCxlLinkLatencyNs;
  std::uint64_t capacity_bytes = 16ull << 30;
  bool persistent = true;  ///< battery-backed persistence domain
};

class RuntimeBuilder {
 public:
  RuntimeBuilder() = default;

  /// The paper's Setup #1: 2x SPR + DDR5, battery-backed CXL FPGA as
  /// /mnt/pmem2 and NUMA node 2, FPGA device model attached.
  [[nodiscard]] static RuntimeBuilder setup_one();
  /// The paper's Setup #2: 2x Cascade Lake + DDR4, pmem0/pmem1 emulation,
  /// no CXL device.
  [[nodiscard]] static RuntimeBuilder setup_two();

  /// Directory hosting the namespace mounts (base_dir/mnt/<name>).
  RuntimeBuilder& base_dir(std::filesystem::path dir);

  /// Adopts a prebuilt machine (e.g. a simkit profile).  Memories gain
  /// exposures via select_memory() + modifiers.
  RuntimeBuilder& machine(simkit::Machine m);

  // --- fluent machine construction -------------------------------------------
  RuntimeBuilder& socket_dram(SocketDramSpec spec = SocketDramSpec());
  RuntimeBuilder& upi(UpiSpec spec = UpiSpec());
  RuntimeBuilder& cxl_expander(CxlExpanderSpec spec = CxlExpanderSpec());

  // --- exposure modifiers (apply to the selected memory) ---------------------
  /// Points subsequent modifiers at an existing memory id.
  RuntimeBuilder& select_memory(simkit::MemoryId m);
  /// DRAM-backed namespace posing as PMem (the paper's pmem0/pmem1).
  RuntimeBuilder& as_emulated_pmem(std::string dax_name);
  /// App-Direct DAX namespace on the selected device (the paper's pmem2).
  RuntimeBuilder& as_dax(std::string dax_name);
  /// Online the selected device as a CPU-less NUMA node (Memory Mode).
  RuntimeBuilder& as_memory_mode();
  /// Attaches a modelled Type-3 device to the selected memory; capacity is
  /// cross-checked at build() and the namespace label lands in the LSA.
  RuntimeBuilder& attach_device(std::shared_ptr<cxlsim::Type3Device> device);

  /// Validates the whole description and constructs the Runtime.
  [[nodiscard]] Result<Runtime> build();

 private:
  void fail(Errc code, std::string message);
  [[nodiscard]] cxlpmem::core::Exposure& exposure_for(simkit::MemoryId m);

  simkit::Machine machine_;
  std::filesystem::path base_dir_;
  std::vector<cxlpmem::core::Exposure> exposures_;
  std::vector<std::pair<simkit::MemoryId,
                        std::shared_ptr<cxlsim::Type3Device>>>
      devices_;
  simkit::MemoryId selected_ = simkit::kInvalidId;
  std::optional<Error> error_;
};

}  // namespace cxlpmem::api

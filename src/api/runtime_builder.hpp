// api/runtime_builder.hpp — RuntimeBuilder: validated construction of the
// facade Runtime.
//
// Start from the paper's calibrated machines:
//
//   auto rt = RuntimeBuilder::setup_one().base_dir(dir).build();
//
// or adopt any simkit::Machine and expose its memories:
//
//   auto ids = simkit::profiles::make_setup_one();
//   auto rt = RuntimeBuilder()
//                 .base_dir(dir)
//                 .machine(std::move(ids.machine))
//                 .select_memory(ids.ddr5_socket0)
//                 .as_emulated_pmem("pmem0")          // DRAM posing as PMem
//                 .select_memory(ids.cxl)
//                 .as_dax("pmem2")                    // App-Direct
//                 .as_memory_mode()                   // ...and NUMA node 2
//                 .attach_device(cxlsim::make_fpga_prototype())
//                 .build();                           // -> Result<Runtime>
//
// Exposure modifiers (as_emulated_pmem / as_dax / as_memory_mode /
// attach_device) apply to the memory chosen by select_memory().  build()
// holds the only copy of every rule — duplicate namespace names, Memory
// Mode or a device on socket memory, emulated PMem on link memory,
// device/machine capacity mismatch — and returns Result instead of
// throwing; the first recorded problem wins.  It also writes each
// namespace's label into its device's LSA and decides each namespace's
// persistence domain, once.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "api/runtime.hpp"
#include "cxlsim/device.hpp"
#include "simkit/profiles.hpp"

namespace cxlpmem::api {

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

  /// Adopts the machine description (e.g. a simkit profile).  Memories gain
  /// exposures via select_memory() + modifiers.
  RuntimeBuilder& machine(simkit::Machine m);

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
  /// How one memory is exposed to software.
  struct Exposure {
    simkit::MemoryId memory = simkit::kInvalidId;
    std::string dax_name;  ///< non-empty: a DAX namespace ("pmem2")
    bool memory_mode = false;    ///< onlined as a CPU-less NUMA node
    bool emulated_pmem = false;  ///< socket DRAM posing as PMem
  };

  void fail(Errc code, std::string message);
  /// The selected memory's exposure; nullptr (and a recorded error naming
  /// `modifier`) when nothing is selected.
  [[nodiscard]] Exposure* selected(const char* modifier);

  simkit::Machine machine_;
  std::filesystem::path base_dir_;
  std::vector<Exposure> exposures_;
  std::map<simkit::MemoryId, std::shared_ptr<cxlsim::Type3Device>> devices_;
  simkit::MemoryId selected_ = simkit::kInvalidId;
  std::optional<Error> error_;
};

}  // namespace cxlpmem::api

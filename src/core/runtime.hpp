// core/runtime.hpp — CxlPmemRuntime: the paper's practical approach as an
// API.
//
// One object wires the whole story together:
//   * a machine model (Setup #1 / #2 or custom);
//   * CXL expanders exposed EITHER as DAX namespaces for App-Direct PMem
//     programming (the /mnt/pmem2 of Figure 2), OR onlined as CPU-less NUMA
//     nodes for Memory-Mode expansion (numactl --membind=2), or both;
//   * socket DRAM optionally exposed as *emulated* PMem namespaces
//     (/mnt/pmem0, /mnt/pmem1) the way the paper emulates remote PMem;
//   * attached cxlsim::Type3Device instances so namespace creation can
//     cross-check device capacity/persistence through the mailbox, and
//     namespace labels land in the device LSA.
//
// The punchline the runtime demonstrates: moving a PMDK-style application
// from Optane to CXL is *just a namespace choice* — same pools, same
// transactions, same recovery.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dax.hpp"
#include "core/persist_domain.hpp"
#include "cxlsim/cxlsim.hpp"
#include "numakit/numakit.hpp"
#include "simkit/profiles.hpp"

namespace cxlpmem::core {

/// How one memory device is exposed to software.
struct Exposure {
  simkit::MemoryId memory = simkit::kInvalidId;
  /// Non-empty: create a DAX namespace with this name (e.g. "pmem2").
  std::string dax_name;
  /// Expose as a CPU-less NUMA node (Memory Mode).  Link-attached only.
  bool memory_mode = false;
  /// DRAM-backed namespace used as emulated PMem (pmem0/pmem1 style).
  bool emulated_pmem = false;
};

class Runtime {
 public:
  /// Takes ownership of the machine description.  `base_dir` hosts the
  /// namespace directories (base_dir/mnt/<name>).
  Runtime(simkit::Machine machine, std::vector<Exposure> exposures,
          std::filesystem::path base_dir);

  // Internal components hold pointers into this object; it stays put.
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] const simkit::Machine& machine() const noexcept {
    return machine_;
  }
  [[nodiscard]] const numakit::NumaTopology& topology() const noexcept {
    return topology_;
  }

  // --- App-Direct ------------------------------------------------------------
  [[nodiscard]] DaxNamespace& dax(const std::string& name);
  [[nodiscard]] const DaxNamespace& dax(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> dax_names() const;

  // --- Memory Mode -------------------------------------------------------------
  /// NUMA node id a memory device is onlined as, or -1.
  [[nodiscard]] int node_of_memory(simkit::MemoryId memory) const {
    return topology_.node_of_memory(memory);
  }

  // --- device integration ------------------------------------------------------
  /// Attaches a modelled CXL device to a machine memory id.  Capacity must
  /// match; the namespace label (if a DAX exposure exists) is written to
  /// the device LSA.
  void attach_device(simkit::MemoryId memory,
                     std::shared_ptr<cxlsim::Type3Device> device);
  [[nodiscard]] cxlsim::Type3Device* device(simkit::MemoryId memory);

  /// Persistence domain of a memory device, preferring live device state
  /// (battery health via mailbox) over the static machine description.
  [[nodiscard]] PersistenceDomain domain_of(simkit::MemoryId memory) const;

  [[nodiscard]] const std::filesystem::path& base_dir() const noexcept {
    return base_dir_;
  }

 private:
  simkit::Machine machine_;
  std::filesystem::path base_dir_;
  std::vector<Exposure> exposures_;
  numakit::NumaTopology topology_;
  std::map<std::string, std::unique_ptr<DaxNamespace>> namespaces_;
  std::map<simkit::MemoryId, std::shared_ptr<cxlsim::Type3Device>> devices_;
};

}  // namespace cxlpmem::core

// api/memory_space.hpp — MemorySpace: the handle a pool is bound to.
//
// The paper's punchline is that Optane -> CXL migration is *just a
// namespace choice*.  A MemorySpace is that choice, reified: it names the
// namespace, says what kind of exposure backs it, carries the backing
// device's simkit::MemoryProfile (so the application can ask "what am I
// actually running on?"), and states the PersistenceDomain — the one fact
// that decides whether a committed transaction survives power loss.
#pragma once

#include <filesystem>
#include <string>

#include "core/persist_domain.hpp"
#include "simkit/topology.hpp"

namespace cxlpmem::api {

/// How the namespace reaches its bytes.
enum class ExposureKind {
  EmulatedPmem,  ///< socket DRAM posing as PMem (the paper's pmem0/pmem1)
  DeviceDax,     ///< App-Direct namespace on a real device (pmem2, DCPMM)
};

[[nodiscard]] inline const char* to_string(ExposureKind k) noexcept {
  switch (k) {
    case ExposureKind::EmulatedPmem: return "emulated-pmem";
    case ExposureKind::DeviceDax: return "device-dax";
  }
  return "?";
}

struct MemorySpace {
  std::string name;  ///< namespace name ("pmem2")
  ExposureKind kind = ExposureKind::DeviceDax;
  simkit::MemoryId memory = simkit::kInvalidId;  ///< backing machine memory
  simkit::MemoryProfile profile;                 ///< backing device profile
  /// The namespace's one durability answer (core::DaxNamespace::domain():
  /// an attached device's battery state first, else the machine model).
  cxlpmem::core::PersistenceDomain domain =
      cxlpmem::core::PersistenceDomain::Volatile;
  /// NUMA node this device is *also* onlined as (Memory Mode), or -1.
  int numa_node = -1;
  std::filesystem::path mount;  ///< namespace directory (base/mnt/<name>)

  /// True when committed data survives power loss on this space.
  [[nodiscard]] bool durable() const noexcept {
    return cxlpmem::core::durable(domain);
  }
};

}  // namespace cxlpmem::api

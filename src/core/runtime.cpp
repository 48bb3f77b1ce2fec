#include "core/runtime.hpp"

#include <cstring>
#include <stdexcept>

namespace cxlpmem::core {

namespace {

/// Builds the topology: sockets + one CPU-less node per memory-mode
/// exposure, in exposure order (so the paper's numbering pmem0/1/2 <->
/// node0/1/2 holds for Setup #1).
numakit::NumaTopology build_topology(const simkit::Machine& machine,
                                     const std::vector<Exposure>& exposures) {
  std::vector<simkit::MemoryId> cpuless;
  for (const Exposure& e : exposures)
    if (e.memory_mode) cpuless.push_back(e.memory);
  return numakit::NumaTopology::from_machine(machine, std::move(cpuless));
}

}  // namespace

Runtime::Runtime(simkit::Machine machine, std::vector<Exposure> exposures,
                 std::filesystem::path base_dir)
    : machine_(std::move(machine)),
      base_dir_(std::move(base_dir)),
      exposures_(std::move(exposures)),
      topology_(build_topology(machine_, exposures_)) {
  for (const Exposure& e : exposures_) {
    if (e.memory < 0 || e.memory >= machine_.memory_count())
      throw std::invalid_argument("exposure references unknown memory");
    if (e.memory_mode &&
        machine_.memory(e.memory).home_socket != simkit::kInvalidId)
      throw std::invalid_argument(
          "memory mode exposure requires link-attached memory");
    if (e.dax_name.empty()) continue;
    if (namespaces_.contains(e.dax_name))
      throw std::invalid_argument("duplicate namespace name " + e.dax_name);
    namespaces_.emplace(
        e.dax_name,
        std::make_unique<DaxNamespace>(e.dax_name,
                                       base_dir_ / "mnt" / e.dax_name,
                                       machine_, e.memory, e.emulated_pmem));
  }
}

DaxNamespace& Runtime::dax(const std::string& name) {
  const auto it = namespaces_.find(name);
  if (it == namespaces_.end())
    throw std::invalid_argument("no DAX namespace named " + name);
  return *it->second;
}

const DaxNamespace& Runtime::dax(const std::string& name) const {
  const auto it = namespaces_.find(name);
  if (it == namespaces_.end())
    throw std::invalid_argument("no DAX namespace named " + name);
  return *it->second;
}

std::vector<std::string> Runtime::dax_names() const {
  std::vector<std::string> names;
  names.reserve(namespaces_.size());
  for (const auto& [name, ns] : namespaces_) names.push_back(name);
  return names;
}

void Runtime::attach_device(simkit::MemoryId memory,
                            std::shared_ptr<cxlsim::Type3Device> device) {
  const simkit::MemoryDesc& desc = machine_.memory(memory);
  if (device->capacity() != desc.capacity_bytes)
    throw std::invalid_argument(
        "device capacity does not match machine description");
  // Write the namespace label into the device LSA, as a real DAX stack
  // records namespaces in label storage.
  for (const Exposure& e : exposures_) {
    if (e.memory != memory || e.dax_name.empty()) continue;
    std::vector<std::uint8_t> label(e.dax_name.begin(), e.dax_name.end());
    const auto res = device->execute(cxlsim::MboxOpcode::SetLsa, label);
    if (res.status != cxlsim::MboxStatus::Success)
      throw std::runtime_error("device rejected namespace label");
  }
  devices_[memory] = std::move(device);
}

cxlsim::Type3Device* Runtime::device(simkit::MemoryId memory) {
  const auto it = devices_.find(memory);
  return it == devices_.end() ? nullptr : it->second.get();
}

PersistenceDomain Runtime::domain_of(simkit::MemoryId memory) const {
  const auto it = devices_.find(memory);
  if (it != devices_.end()) {
    return it->second->persistence_domain()
               ? PersistenceDomain::BatteryBackedDevice
               : PersistenceDomain::Volatile;
  }
  bool emulated = false;
  for (const Exposure& e : exposures_)
    if (e.memory == memory && !e.dax_name.empty()) emulated = e.emulated_pmem;
  return classify(machine_.memory(memory), emulated);
}

}  // namespace cxlpmem::core

#include "api/runtime_builder.hpp"

#include <cstdint>
#include <set>
#include <utility>

#include "api/translate.hpp"
#include "cxlsim/fpga_proto.hpp"

namespace cxlpmem::api {

namespace core = cxlpmem::core;

void RuntimeBuilder::fail(Errc code, std::string message) {
  if (!error_) error_ = Error{code, std::move(message)};
}

RuntimeBuilder::Exposure* RuntimeBuilder::selected(const char* modifier) {
  if (selected_ == simkit::kInvalidId) {
    fail(Errc::InvalidConfig,
         std::string(modifier) + "() before select_memory()");
    return nullptr;
  }
  for (Exposure& e : exposures_)
    if (e.memory == selected_) return &e;
  return &exposures_.emplace_back(
      Exposure{.memory = selected_, .dax_name = {}});
}

RuntimeBuilder& RuntimeBuilder::base_dir(std::filesystem::path dir) {
  base_dir_ = std::move(dir);
  return *this;
}

RuntimeBuilder& RuntimeBuilder::machine(simkit::Machine m) {
  if (machine_.memory_count() > 0 || machine_.socket_count() > 0) {
    fail(Errc::InvalidConfig,
         "machine() would discard the machine already described");
    return *this;
  }
  machine_ = std::move(m);
  return *this;
}

RuntimeBuilder& RuntimeBuilder::select_memory(simkit::MemoryId m) {
  if (m < 0 || m >= machine_.memory_count()) {
    fail(Errc::InvalidConfig,
         "select_memory(" + std::to_string(m) + "): no such memory");
    return *this;
  }
  selected_ = m;
  return *this;
}

RuntimeBuilder& RuntimeBuilder::as_emulated_pmem(std::string dax_name) {
  if (Exposure* e = selected("as_emulated_pmem")) {
    e->dax_name = std::move(dax_name);
    e->emulated_pmem = true;
  }
  return *this;
}

RuntimeBuilder& RuntimeBuilder::as_dax(std::string dax_name) {
  if (Exposure* e = selected("as_dax")) {
    e->dax_name = std::move(dax_name);
    e->emulated_pmem = false;
  }
  return *this;
}

RuntimeBuilder& RuntimeBuilder::as_memory_mode() {
  if (Exposure* e = selected("as_memory_mode")) e->memory_mode = true;
  return *this;
}

RuntimeBuilder& RuntimeBuilder::attach_device(
    std::shared_ptr<cxlsim::Type3Device> device) {
  if (selected_ == simkit::kInvalidId) {
    fail(Errc::InvalidConfig, "attach_device() before select_memory()");
    return *this;
  }
  if (device == nullptr) {
    fail(Errc::InvalidConfig, "attach_device(nullptr)");
    return *this;
  }
  devices_[selected_] = std::move(device);
  return *this;
}

Result<Runtime> RuntimeBuilder::build() {
  if (error_) return *error_;
  if (machine_.socket_count() == 0)
    return Error{Errc::InvalidConfig, "machine has no sockets"};
  if (base_dir_.empty())
    return Error{Errc::InvalidConfig,
                 "base_dir() is required (hosts the namespace mounts)"};

  // Validate exposures before anything is constructed.
  std::set<std::string> names;
  for (const Exposure& e : exposures_) {
    const simkit::MemoryDesc& mem = machine_.memory(e.memory);
    if (!e.dax_name.empty() && !names.insert(e.dax_name).second)
      return Error{Errc::DuplicateNamespace,
                   "namespace name '" + e.dax_name + "' used twice"};
    if (e.memory_mode && mem.home_socket != simkit::kInvalidId)
      return Error{Errc::InvalidConfig,
                   "memory mode on '" + mem.name +
                       "': only link-attached memory can online as a "
                       "CPU-less NUMA node"};
    if (e.emulated_pmem && mem.home_socket == simkit::kInvalidId)
      return Error{Errc::InvalidConfig,
                   "emulated PMem on '" + mem.name +
                       "': emulation marks socket DRAM, not link-attached "
                       "devices"};
  }

  // Validate device attachments against the machine description.
  for (const auto& [memory, device] : devices_) {
    const simkit::MemoryDesc& mem = machine_.memory(memory);
    if (mem.home_socket != simkit::kInvalidId)
      return Error{Errc::InvalidConfig,
                   "attach_device on '" + mem.name +
                       "': devices attach to link-attached memory only"};
    if (device->capacity() != mem.capacity_bytes)
      return Error{Errc::CapacityMismatch,
                   "device '" + device->config().name + "' has " +
                       std::to_string(device->capacity()) +
                       " bytes, machine memory '" + mem.name + "' declares " +
                       std::to_string(mem.capacity_bytes)};
  }

  // Each namespace's label lands in its device's LSA, as a real DAX stack
  // records namespaces in label storage.
  for (const Exposure& e : exposures_) {
    const auto dev = devices_.find(e.memory);
    if (e.dax_name.empty() || dev == devices_.end()) continue;
    const std::vector<std::uint8_t> label(e.dax_name.begin(),
                                          e.dax_name.end());
    if (dev->second->execute(cxlsim::MboxOpcode::SetLsa, label).status !=
        cxlsim::MboxStatus::Success)
      return Error{Errc::DeviceFailure,
                   "device '" + dev->second->config().name +
                       "' rejected namespace label '" + e.dax_name + "'"};
  }

  // Construct.  Residual failures (directory creation) are translated.  The
  // state lives on the heap, so the topology's pointer to the machine
  // survives moves of the Runtime.
  auto state = std::make_unique<Runtime::State>();
  state->machine = std::move(machine_);
  std::vector<simkit::MemoryId> cpuless;  // exposure order: pmem2 <-> node 2
  for (const Exposure& e : exposures_)
    if (e.memory_mode) cpuless.push_back(e.memory);
  // Placement's durability: classify() unless a namespace decides below.
  for (simkit::MemoryId m = 0; m < state->machine.memory_count(); ++m)
    state->domains.push_back(core::classify(state->machine.memory(m)));
  Result<void> built = wrap([&] {
    state->topology =
        numakit::NumaTopology::from_machine(state->machine, cpuless);
    for (const Exposure& e : exposures_) {
      if (e.dax_name.empty()) continue;
      const auto dev = devices_.find(e.memory);
      // The namespace decides its persistence domain, device state first;
      // the MemorySpace copies that one answer.
      core::DaxNamespace dax(
          e.dax_name, base_dir_ / "mnt" / e.dax_name, state->machine,
          e.memory, e.emulated_pmem,
          dev == devices_.end() ? nullptr : dev->second.get());
      MemorySpace space{
          .name = e.dax_name,
          .kind = e.emulated_pmem ? ExposureKind::EmulatedPmem
                                  : ExposureKind::DeviceDax,
          .memory = e.memory,
          .profile = simkit::profile_of(state->machine, e.memory),
          .domain = dax.domain(),
          .numa_node = e.memory_mode
                           ? state->topology.node_of_memory(e.memory)
                           : -1,
          .mount = dax.path()};
      state->domains[static_cast<std::size_t>(e.memory)] = dax.domain();
      state->namespaces.emplace(
          e.dax_name, Runtime::Namespace{std::move(space), std::move(dax)});
    }
  });
  if (!built.ok()) return built.error();
  state->devices = std::move(devices_);
  return Runtime(std::move(state));
}

RuntimeBuilder RuntimeBuilder::setup_one() {
  auto ids = simkit::profiles::make_setup_one();
  RuntimeBuilder b;
  b.machine(std::move(ids.machine));
  b.select_memory(ids.ddr5_socket0).as_emulated_pmem("pmem0");
  b.select_memory(ids.ddr5_socket1).as_emulated_pmem("pmem1");
  b.select_memory(ids.cxl)
      .as_dax("pmem2")
      .as_memory_mode()
      .attach_device(cxlsim::make_fpga_prototype());
  return b;
}

RuntimeBuilder RuntimeBuilder::setup_two() {
  auto ids = simkit::profiles::make_setup_two();
  RuntimeBuilder b;
  b.machine(std::move(ids.machine));
  b.select_memory(ids.ddr4_socket0).as_emulated_pmem("pmem0");
  b.select_memory(ids.ddr4_socket1).as_emulated_pmem("pmem1");
  return b;
}

}  // namespace cxlpmem::api

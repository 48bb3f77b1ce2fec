#include "api/runtime_builder.hpp"

#include <map>
#include <set>

#include "api/translate.hpp"
#include "cxlsim/fpga_proto.hpp"

namespace cxlpmem::api {

namespace core = cxlpmem::core;

void RuntimeBuilder::fail(Errc code, std::string message) {
  if (!error_) error_ = Error{code, std::move(message)};
}

core::Exposure& RuntimeBuilder::exposure_for(simkit::MemoryId m) {
  for (core::Exposure& e : exposures_)
    if (e.memory == m) return e;
  exposures_.push_back(core::Exposure{.memory = m, .dax_name = ""});
  return exposures_.back();
}

RuntimeBuilder& RuntimeBuilder::base_dir(std::filesystem::path dir) {
  base_dir_ = std::move(dir);
  return *this;
}

RuntimeBuilder& RuntimeBuilder::machine(simkit::Machine m) {
  if (machine_.memory_count() > 0 || machine_.socket_count() > 0) {
    fail(Errc::InvalidConfig,
         "machine() would discard sockets/memories already described");
    return *this;
  }
  machine_ = std::move(m);
  return *this;
}

RuntimeBuilder& RuntimeBuilder::socket_dram(SocketDramSpec spec) {
  try {
    const simkit::SocketId socket =
        machine_.add_socket(simkit::SocketDesc{.name = spec.name,
                                               .cores = spec.cores,
                                               .mlp_lines = spec.mlp_lines,
                                               .l3_bytes = spec.l3_bytes,
                                               .base_freq_ghz =
                                                   spec.base_freq_ghz});
    selected_ = machine_.add_memory(
        simkit::MemoryDesc{.name = spec.name + "-dram",
                           .kind = spec.dram_kind,
                           .home_socket = socket,
                           .peak_read_gbs = spec.read_gbs,
                           .peak_write_gbs = spec.write_gbs,
                           .idle_latency_ns = spec.idle_latency_ns,
                           .capacity_bytes = spec.capacity_bytes,
                           .persistent = false});
  } catch (const std::exception& e) {
    fail(Errc::InvalidConfig, e.what());
  }
  return *this;
}

RuntimeBuilder& RuntimeBuilder::upi(UpiSpec spec) {
  try {
    machine_.add_link(simkit::LinkDesc{.name = "upi",
                                       .kind = simkit::LinkKind::Upi,
                                       .a = spec.a,
                                       .b = spec.b,
                                       .peak_tx_gbs = spec.gbs,
                                       .peak_rx_gbs = spec.gbs,
                                       .latency_ns = spec.latency_ns,
                                       .attached = {}});
  } catch (const std::exception& e) {
    fail(Errc::InvalidConfig, e.what());
  }
  return *this;
}

RuntimeBuilder& RuntimeBuilder::cxl_expander(CxlExpanderSpec spec) {
  try {
    const simkit::MemoryId m = machine_.add_memory(
        simkit::MemoryDesc{.name = spec.name,
                           .kind = simkit::MemoryKind::CxlExpander,
                           .home_socket = simkit::kInvalidId,
                           .peak_read_gbs = spec.media_read_gbs,
                           .peak_write_gbs = spec.media_write_gbs,
                           .peak_combined_gbs = spec.combined_gbs,
                           .idle_latency_ns = spec.media_latency_ns,
                           .capacity_bytes = spec.capacity_bytes,
                           .persistent = spec.persistent});
    machine_.add_link(simkit::LinkDesc{.name = spec.name + "-link",
                                       .kind = simkit::LinkKind::PcieCxl,
                                       .a = spec.attach_socket,
                                       .b = simkit::kInvalidId,
                                       .peak_tx_gbs = spec.link_gbs,
                                       .peak_rx_gbs = spec.link_gbs,
                                       .latency_ns = spec.link_latency_ns,
                                       .attached = {m}});
    selected_ = m;
  } catch (const std::exception& e) {
    fail(Errc::InvalidConfig, e.what());
  }
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
  if (selected_ == simkit::kInvalidId) {
    fail(Errc::InvalidConfig, "as_emulated_pmem() before any memory");
    return *this;
  }
  core::Exposure& e = exposure_for(selected_);
  e.dax_name = std::move(dax_name);
  e.emulated_pmem = true;
  return *this;
}

RuntimeBuilder& RuntimeBuilder::as_dax(std::string dax_name) {
  if (selected_ == simkit::kInvalidId) {
    fail(Errc::InvalidConfig, "as_dax() before any memory");
    return *this;
  }
  core::Exposure& e = exposure_for(selected_);
  e.dax_name = std::move(dax_name);
  e.emulated_pmem = false;
  return *this;
}

RuntimeBuilder& RuntimeBuilder::as_memory_mode() {
  if (selected_ == simkit::kInvalidId) {
    fail(Errc::InvalidConfig, "as_memory_mode() before any memory");
    return *this;
  }
  exposure_for(selected_).memory_mode = true;
  return *this;
}

RuntimeBuilder& RuntimeBuilder::attach_device(
    std::shared_ptr<cxlsim::Type3Device> device) {
  if (selected_ == simkit::kInvalidId) {
    fail(Errc::InvalidConfig, "attach_device() before any memory");
    return *this;
  }
  if (device == nullptr) {
    fail(Errc::InvalidConfig, "attach_device(nullptr)");
    return *this;
  }
  devices_.emplace_back(selected_, std::move(device));
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
  for (const core::Exposure& e : exposures_) {
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

  // Construct.  Residual failures (directory creation, LSA writes) are
  // translated; the machine moves into the runtime, so grab profiles after.
  std::unique_ptr<core::Runtime> rt;
  try {
    rt = std::make_unique<core::Runtime>(std::move(machine_), exposures_,
                                         base_dir_);
  } catch (const std::invalid_argument& e) {
    return Error{Errc::InvalidConfig, e.what()};
  } catch (const pmemkit::Error& e) {
    return translate(e);
  } catch (const std::filesystem::filesystem_error& e) {
    return Error{Errc::IoFailure, e.what()};
  } catch (const std::exception& e) {
    return Error{Errc::Internal, e.what()};
  }
  for (auto& [memory, device] : devices_) {
    try {
      rt->attach_device(memory, std::move(device));
    } catch (const std::exception& e) {
      // Capacity was pre-checked above; what remains is the device model
      // itself refusing (mailbox/LSA rejection).
      return Error{Errc::DeviceFailure, e.what()};
    }
  }

  std::map<std::string, MemorySpace, std::less<>> spaces;
  for (const core::Exposure& e : exposures_) {
    if (e.dax_name.empty()) continue;
    MemorySpace s;
    s.name = e.dax_name;
    s.kind = e.emulated_pmem ? ExposureKind::EmulatedPmem
                             : ExposureKind::DeviceDax;
    s.memory = e.memory;
    s.profile = simkit::profile_of(rt->machine(), e.memory);
    s.domain = rt->domain_of(e.memory);
    s.numa_node = e.memory_mode ? rt->node_of_memory(e.memory) : -1;
    s.mount = rt->dax(e.dax_name).path();
    spaces.emplace(s.name, std::move(s));
  }
  return Runtime(std::move(rt), std::move(spaces));
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

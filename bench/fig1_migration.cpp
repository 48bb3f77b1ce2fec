// Reproduces Figure 1: the migration from "today" (DDR4 + DCPMM via DIMMs,
// NVMe over PCIe4) to the "CXL future" (DDR5 + CXL memory as PMem) — as
// bandwidth ladders per tier, plus an actual pool migration between the two
// worlds (Intel's Optane->CXL brief, paper ref [22]).
#include <cstdio>
#include <filesystem>

#include "core/core.hpp"
#include "numakit/numakit.hpp"
#include "simkit/profiles.hpp"
#include "stream/stream.hpp"

using namespace cxlpmem;
namespace profiles = simkit::profiles;

namespace {

double triad_gbs(const simkit::Machine& machine, simkit::MemoryId mem,
                 std::vector<simkit::MemoryId> /*cpuless*/,
                 stream::AccessMode mode) {
  stream::BenchOptions opts;
  opts.model_only = true;
  const stream::StreamBenchmark bench(machine, opts);
  const auto plan =
      numakit::plan_affinity(machine, 10, numakit::AffinityPolicy::Close, 0);
  // Target the device directly: DCPMM shares its NUMA node with the DDR4
  // DIMMs, so node-based binding would be ambiguous.
  numakit::Placement placement;
  placement.shares = {{mem, 1.0}};
  return bench.run(plan, placement, mode)[stream::Kernel::Triad].model_gbs;
}

void ladder(const char* tier, double gbs) {
  std::printf("  %-28s %6.1f GB/s |", tier, gbs);
  for (int i = 0; i < static_cast<int>(gbs); i += 1) std::printf("#");
  std::printf("\n");
}

}  // namespace

int main() {
  const auto legacy = profiles::make_legacy_setup();
  const auto modern = profiles::make_setup_one();

  std::printf("=== Figure 1: today's stack vs the CXL future ===\n\n");
  std::printf("TODAY  (DDR4 main memory + DCPMM as PMem):\n");
  ladder("DDR4 local (Memory Mode)",
         triad_gbs(legacy.machine, legacy.ddr4_socket0, {},
                   stream::AccessMode::MemoryMode));
  ladder("DCPMM App-Direct",
         triad_gbs(legacy.machine, legacy.dcpmm, {},
                   stream::AccessMode::AppDirect));

  std::printf("\nCXL FUTURE  (DDR5 main memory + CXL memory as PMem):\n");
  ladder("DDR5 local (Memory Mode)",
         triad_gbs(modern.machine, modern.ddr5_socket0, {modern.cxl},
                   stream::AccessMode::MemoryMode));
  ladder("CXL memory expansion",
         triad_gbs(modern.machine, modern.cxl, {modern.cxl},
                   stream::AccessMode::MemoryMode));
  ladder("CXL App-Direct (PMem)",
         triad_gbs(modern.machine, modern.cxl, {modern.cxl},
                   stream::AccessMode::AppDirect));

  // --- and the software side of Figure 1: the pools move as files ----------
  const auto base = std::filesystem::temp_directory_path() /
                    ("fig1-" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  {
    core::DaxNamespace optane("optane", base / "optane", legacy.machine,
                              legacy.dcpmm, false);
    core::DaxNamespace pmem2("pmem2", base / "pmem2", modern.machine,
                             modern.cxl, false);
    {
      auto pool = optane.create_pool(
          "app.pool", "hpc-app", pmemkit::ObjectPool::min_pool_size());
      struct R { std::uint64_t steps; };
      auto* r = pool->direct(pool->root<R>());
      pool->run_tx([&] {
        pool->tx_add_range(&r->steps, 8);
        r->steps = 123456;
      });
    }
    const auto report =
        core::migrate_pool(optane, pmem2, "app.pool", "hpc-app");
    std::printf("\nPool migration (paper ref [22]):\n");
    std::printf("  %s -> %s, %llu bytes, pool id preserved: yes,"
                " durability preserved: %s\n",
                to_string(report.source_domain).c_str(),
                to_string(report.destination_domain).c_str(),
                static_cast<unsigned long long>(report.bytes_copied),
                report.durability_preserved() ? "yes" : "NO");
    auto pool = pmem2.open_pool("app.pool", "hpc-app");
    struct R { std::uint64_t steps; };
    std::printf("  application state readable on CXL: steps = %llu\n",
                static_cast<unsigned long long>(
                    pool->direct(pool->root<R>())->steps));
  }
  std::filesystem::remove_all(base);
  return 0;
}

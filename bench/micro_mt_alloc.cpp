// bench/micro_mt_alloc.cpp — multi-threaded allocator scaling.
//
// N threads hammer one pool with a mixed workload (small alloc/free pairs,
// undo-log transactions with tx_alloc/tx_free, mid-size allocations) and we
// report aggregate throughput per thread count.  Before the allocator was
// sharded, every operation serialized on one global mutex and lane 0's redo
// log, so this curve was flat by construction; with per-chunk ownership and
// per-lane redo it should rise with cores.
//
//   micro_mt_alloc [--smoke] [--ops N] [--threads-max T] [--json PATH]
//
// --smoke (used from ctest) shrinks the run and fails the process when
// multi-threaded throughput collapses versus single-threaded — and, on
// machines with >= 4 hardware threads, when it fails to beat it.
// --json writes the scaling curve as BENCH_mt_alloc.json-style output so
// CI can archive it next to the other BENCH_*.json artifacts.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

constexpr int kMaxThreads = 64;

struct BenchRoot {
  pk::ObjId slots[kMaxThreads];
};

/// splitmix64: cheap per-thread operation mixer.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct RunResult {
  double mops = 0;  ///< operations per second, millions
  pk::PoolStats stats;
};

RunResult run_once(const fs::path& path, int threads, std::uint64_t ops) {
  fs::remove(path);
  auto pool = pk::ObjectPool::create(path, "mt-bench", 64ull << 20);
  (void)pool->direct(pool->root<BenchRoot>());

  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&pool, t, ops] {
      auto* root = pool->direct(pool->root<BenchRoot>());
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t r = mix((std::uint64_t{static_cast<std::uint32_t>(t)} << 32) | i);
        const unsigned pick = r % 100;
        if (pick < 60) {
          // Small alloc/free pair; size spreads across run classes.
          const std::uint64_t size = 48 + (r >> 8) % 960;
          const pk::ObjId oid = pool->alloc_atomic(size, 100 + t);
          pool->free_atomic(oid);
        } else if (pick < 85) {
          // Transaction: snapshot own slot, replace the published object.
          pool->run_tx([&] {
            const pk::ObjId fresh = pool->tx_alloc(128, 200 + t);
            pool->tx_add_range(&root->slots[t], sizeof(root->slots[t]));
            if (!root->slots[t].is_null()) pool->tx_free(root->slots[t]);
            root->slots[t] = fresh;
          });
        } else {
          // Mid-size allocation (top run class).
          const pk::ObjId oid = pool->alloc_atomic(64 * 1024, 300 + t);
          pool->free_atomic(oid);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  RunResult out;
  out.mops = static_cast<double>(ops) * threads / secs / 1e6;
  out.stats = pool->stats();
  pool.reset();
  fs::remove(path);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t ops = 20000;
  int threads_max = 8;
  fs::path json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      smoke = true;
      ops = 3000;
    } else if (arg == "--ops" && i + 1 < argc) {
      ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads-max" && i + 1 < argc) {
      threads_max = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--ops N] [--threads-max T] "
                   "[--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  threads_max = std::clamp(threads_max, 1, kMaxThreads);

  const fs::path path =
      fs::temp_directory_path() /
      ("micro-mt-alloc-" + std::to_string(::getpid()) + ".pool");

  std::printf("# micro_mt_alloc: mixed alloc/free/tx workload, %llu ops/thread\n",
              static_cast<unsigned long long>(ops));
  // class/chunk/span: contended acquisitions of the heap's size-class,
  // blocking chunk and span locks (HeapContention).
  std::printf("%-8s %-12s %-12s %-14s %-12s %-12s %-12s %-12s\n", "threads",
              "Mops/s", "lane_waits", "run_skips", "run_waits", "class_cont",
              "chunk_cont", "span_cont");

  double mops1 = 0, mops_best_mt = 0;
  std::string json = "{\n  \"ops_per_thread\": " + std::to_string(ops) +
                     ",\n  \"hw_threads\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\n  \"scaling\": [\n";
  bool json_first = true;
  for (int threads = 1; threads <= threads_max; threads *= 2) {
    // Best of three trials so a loaded CI machine doesn't skew the curve.
    RunResult best;
    for (int trial = 0; trial < 3; ++trial) {
      RunResult r = run_once(path, threads, ops);
      if (r.mops > best.mops) best = r;
    }
    const pk::HeapContention& cont = best.stats.heap.contended;
    std::printf(
        "%-8d %-12.3f %-12llu %-14llu %-12llu %-12llu %-12llu %-12llu\n",
        threads, best.mops,
        static_cast<unsigned long long>(best.stats.lane_waits),
        static_cast<unsigned long long>(best.stats.heap.run_lock_skips),
        static_cast<unsigned long long>(best.stats.heap.run_lock_waits),
        static_cast<unsigned long long>(cont.class_lock),
        static_cast<unsigned long long>(cont.chunk_lock),
        static_cast<unsigned long long>(cont.span_lock));
    json += std::string(json_first ? "" : ",\n") +
            "    {\"threads\": " + std::to_string(threads) +
            ", \"mops\": " + std::to_string(best.mops) +
            ", \"lane_waits\": " + std::to_string(best.stats.lane_waits) +
            ", \"run_lock_skips\": " +
            std::to_string(best.stats.heap.run_lock_skips) +
            ", \"run_lock_waits\": " +
            std::to_string(best.stats.heap.run_lock_waits) +
            ", \"class_lock_contended\": " + std::to_string(cont.class_lock) +
            ", \"chunk_lock_contended\": " + std::to_string(cont.chunk_lock) +
            ", \"span_lock_contended\": " + std::to_string(cont.span_lock) +
            "}";
    json_first = false;
    if (threads == 1) mops1 = best.mops;
    if (threads > 1) mops_best_mt = std::max(mops_best_mt, best.mops);
  }
  json += "\n  ]\n}\n";
  if (!cxlpmem::bench::write_bench_json(json_path, json)) return 1;

  if (smoke && threads_max > 1) {
    // On a single core true parallel speedup is impossible; the honest
    // invariant there is "no serialization collapse".  With real cores the
    // sharded heap must actually scale.
    const unsigned hw = std::thread::hardware_concurrency();
    const double floor = hw >= 4 ? 1.15 : 0.50;
    if (mops_best_mt < mops1 * floor) {
      std::fprintf(stderr,
                   "FAIL: MT throughput %.3f Mops/s vs single-thread %.3f "
                   "(floor %.2fx, hw=%u)\n",
                   mops_best_mt, mops1, floor, hw);
      return 1;
    }
    std::printf("smoke OK: best MT %.3f Mops/s vs 1T %.3f (hw=%u)\n",
                mops_best_mt, mops1, hw);
  }
  return 0;
}

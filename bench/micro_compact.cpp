// bench/micro_compact.cpp — the background compactor's cost/benefit curve.
//
// Builds a deliberately churned heap (fill with run-class objects, free a
// configurable fraction), then measures one compact_pool pass per churn
// level: relocation throughput (objects/s, MiB/s), chunks reclaimed, and
// fragmentation before/after — the numbers an operator tuning cxlpmemd's
// --compact-above threshold wants.  Emitted into BENCH_compact.json.
//
//   micro_compact [--smoke] [--objects N] [--json PATH]
//
// --smoke (used from ctest) shrinks the run and fails the process when the
// high-churn pass does not measurably defragment: fragmentation must drop
// by at least 0.10 absolute, and at least one emptied chunk must return to
// the span map.  It also fails when the heap's O(1) occupancy counters
// disagree with the walked census after any churn or compaction step.
// These checks are structural (they depend on the allocator, not on
// timing), so the smoke needs no starved-runner relaxation.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "pmemkit/evolve.hpp"
#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

struct Config {
  bool smoke = false;
  std::uint64_t objects = 4096;
  fs::path json = "BENCH_compact.json";
};

constexpr std::uint32_t kObjType = 0xbe;
constexpr std::uint64_t kObjBytes = 8000;  // run class, several per chunk

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when pool.occupancy() equals the walked stats(); reports the drift
/// on stderr otherwise.
bool occupancy_matches(const pk::ObjectPool& pool, const char* step) {
  const pk::HeapStats walked = pool.stats().heap;
  const pk::HeapOccupancy occ = pool.occupancy();
  if (occ.live_bytes == walked.live_bytes &&
      occ.reserved_bytes == walked.reserved_bytes)
    return true;
  std::fprintf(stderr,
               "FAIL: occupancy drift after %s: counters live=%llu "
               "reserved=%llu, walk live=%llu reserved=%llu\n",
               step, static_cast<unsigned long long>(occ.live_bytes),
               static_cast<unsigned long long>(occ.reserved_bytes),
               static_cast<unsigned long long>(walked.live_bytes),
               static_cast<unsigned long long>(walked.reserved_bytes));
  return false;
}

/// Fills a fresh pool with `n` objects, then frees all but every
/// `1/keep_every`-th — the churn pattern that strands sparse run chunks.
/// Returns the surviving oids (the compaction reference slots).
std::vector<pk::ObjId> churn(pk::ObjectPool& pool, std::uint64_t n,
                             std::uint64_t keep_every) {
  std::vector<pk::ObjId> slots(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    pool.run_tx([&] {
      slots[i] = pool.tx_alloc(kObjBytes, kObjType);
      auto* bytes = static_cast<unsigned char*>(pool.direct(slots[i]));
      // No explicit persist: tx_alloc registers the block as a fresh range
      // and commit flushes it — persisting here would flush the lines twice.
      std::memset(bytes, static_cast<int>(i & 0xff), 64);
    });
  }
  std::vector<pk::ObjId> survivors;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % keep_every == 0) {
      survivors.push_back(slots[i]);
      continue;
    }
    pool.run_tx([&] { pool.tx_free(slots[i]); });
  }
  return survivors;
}

struct PassResult {
  std::uint64_t survivors = 0;
  pk::CompactReport report;
  double seconds = 0;
  bool occupancy_ok = true;  ///< counters matched the walk at every step
};

PassResult run_pass(const fs::path& path, std::uint64_t objects,
                    std::uint64_t keep_every) {
  fs::remove(path);
  // Size the pool for the full population plus allocator overhead.
  const std::uint64_t need = objects * (kObjBytes + 64);
  const std::uint64_t size =
      pk::ObjectPool::min_pool_size() +
      ((need + pk::kChunkSize - 1) / pk::kChunkSize + 8) * pk::kChunkSize;
  auto pool = pk::ObjectPool::create(path, "micro-compact", size);

  PassResult r;
  std::vector<pk::ObjId> survivors = churn(*pool, objects, keep_every);
  r.occupancy_ok = occupancy_matches(*pool, "churn");
  std::vector<pk::ObjId*> refs;
  refs.reserve(survivors.size());
  for (pk::ObjId& s : survivors) refs.push_back(&s);

  r.survivors = survivors.size();
  const double t0 = now_s();
  r.report = pk::compact_pool(*pool, refs);
  r.seconds = now_s() - t0;
  r.occupancy_ok = occupancy_matches(*pool, "compaction") && r.occupancy_ok;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--objects" && val != nullptr) {
      cfg.objects = std::strtoull(val, nullptr, 10);
      ++i;
    } else if (arg == "--json" && val != nullptr) {
      cfg.json = val;
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--objects N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.smoke) cfg.objects = std::min<std::uint64_t>(cfg.objects, 2048);

  const fs::path path =
      fs::temp_directory_path() /
      ("micro-compact-" + std::to_string(::getpid()) + ".pool");

  // keep_every = 2 is mild churn (half the objects survive); 8 is the
  // badly fragmented heap background compaction exists for.
  const std::uint64_t kChurns[] = {2, 4, 8};
  std::printf("%-12s %-10s %-8s %-8s %-10s %-10s %-10s\n", "keep_every",
              "survivors", "frag0", "frag1", "moved", "chunks", "Mobj/s");
  std::string json = "{\n  \"object_bytes\": " + std::to_string(kObjBytes) +
                     ",\n  \"passes\": [\n";
  double high_churn_drop = 0;
  std::uint64_t high_churn_reclaimed = 0;
  bool occupancy_ok = true;
  for (std::size_t c = 0; c < std::size(kChurns); ++c) {
    const PassResult r = run_pass(path, cfg.objects, kChurns[c]);
    occupancy_ok = occupancy_ok && r.occupancy_ok;
    const double rate =
        r.report.moved_objects / std::max(r.seconds, 1e-9);
    std::printf("%-12llu %-10llu %-8.3f %-8.3f %-10llu %-10llu %-10.3f\n",
                static_cast<unsigned long long>(kChurns[c]),
                static_cast<unsigned long long>(r.survivors),
                r.report.fragmentation_before, r.report.fragmentation_after,
                static_cast<unsigned long long>(r.report.moved_objects),
                static_cast<unsigned long long>(r.report.reclaimed_chunks),
                rate / 1e6);
    json += "    {\"keep_every\": " + std::to_string(kChurns[c]) +
            ", \"survivors\": " + std::to_string(r.survivors) +
            ", \"fragmentation_before\": " +
            std::to_string(r.report.fragmentation_before) +
            ", \"fragmentation_after\": " +
            std::to_string(r.report.fragmentation_after) +
            ", \"moved_objects\": " + std::to_string(r.report.moved_objects) +
            ", \"moved_bytes\": " + std::to_string(r.report.moved_bytes) +
            ", \"reclaimed_chunks\": " +
            std::to_string(r.report.reclaimed_chunks) +
            ", \"seconds\": " + std::to_string(r.seconds) +
            ", \"objects_per_sec\": " + std::to_string(rate) + "}" +
            (c + 1 < std::size(kChurns) ? ",\n" : "\n");
    if (kChurns[c] == 8) {
      high_churn_drop =
          r.report.fragmentation_before - r.report.fragmentation_after;
      high_churn_reclaimed = r.report.reclaimed_chunks;
    }
  }
  json += "  ]\n}\n";

  if (!cxlpmem::bench::write_bench_json(cfg.json, json)) return 1;
  fs::remove(path);

  if (cfg.smoke) {
    bool fail = false;
    if (high_churn_drop < 0.10) {
      std::fprintf(stderr,
                   "FAIL: high-churn compaction dropped fragmentation by "
                   "%.3f (floor 0.10)\n",
                   high_churn_drop);
      fail = true;
    }
    if (high_churn_reclaimed == 0) {
      std::fprintf(stderr,
                   "FAIL: high-churn compaction reclaimed no chunks\n");
      fail = true;
    }
    if (!occupancy_ok) fail = true;  // drift already reported per step
    if (fail) return 1;
    std::printf("smoke OK: fragmentation -%.3f, %llu chunks reclaimed\n",
                high_churn_drop,
                static_cast<unsigned long long>(high_churn_reclaimed));
  }
  return 0;
}

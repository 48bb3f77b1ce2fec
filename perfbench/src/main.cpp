// cxlpmem_bench — runs one perfbench workload and prints its metrics.
//
//   cxlpmem_bench --workload W --seed N --seconds S --trace 0|1
//                 --work DIR --trace-dir DIR [--source-id ID]
//   cxlpmem_bench --list-metrics
//
// Prints "# key value" notes (the stamp, sizes, sample counts), then as the
// last line one JSON object {"correct","attempted","failed","metrics"}:
// every end-to-end metric untraced, every per-layer metric traced.  Exits 1
// when any output was wrong, 2 on bad arguments.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "gen.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: cxlpmem_bench --workload "
               "kv_write|kv_read_tiered|ckpt_restart|pool_tx_mt --seed N "
               "--seconds S --trace 0|1 --work DIR --trace-dir DIR "
               "[--source-id ID]\n"
               "       cxlpmem_bench --list-metrics\n");
  return 2;
}

/// Same seed -> byte-identical request stream; another seed -> another one.
bool stream_is_seeded(const KvShape& shape, std::uint64_t seed) {
  const std::uint64_t a = stream_digest(shape, seed, 2000);
  return a == stream_digest(shape, seed, 2000) &&
         a != stream_digest(shape, seed + 1, 2000);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source_id = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricDef& m : e2e_metrics())
        std::printf("e2e %s %s\n", m.name, m.unit);
      for (const MetricDef& m : layer_metrics())
        std::printf("layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--work") opt.work = v;
      else if (a == "--trace-dir") opt.trace_dir = v;
      else if (a == "--source-id") source_id = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if ((trace != 0 && trace != 1) || opt.seconds <= 0 ||
      opt.work.empty() || opt.trace_dir.empty())
    return usage();
  opt.trace = trace == 1;
  const bool kv = opt.workload == "kv_write" || opt.workload == "kv_read_tiered";
  if (!kv && opt.workload != "ckpt_restart" && opt.workload != "pool_tx_mt")
    return usage();

  // A write past the file-size limit then fails with EFBIG and is reported
  // as a failed operation, instead of killing the process without a result.
  std::signal(SIGXFSZ, SIG_IGN);
  Outcome out;
  try {
    std::filesystem::create_directories(opt.work);
    if (opt.workload == "kv_write") out = run_kv(opt, false);
    else if (opt.workload == "kv_read_tiered") out = run_kv(opt, true);
    else if (opt.workload == "ckpt_restart") out = run_ckpt(opt);
    else out = run_pool_tx(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  Report& r = out.report;
  if (kv) {
    const KvShape shape =
        opt.workload == "kv_write" ? kv_write_shape() : kv_read_tiered_shape();
    ++r.attempted;
    if (!stream_is_seeded(shape, opt.seed))
      r.fail(1, "request stream is not a function of the seed alone");
  }

  std::printf("# source %s\n", source_id.c_str());
  std::printf("# build_type %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("# compiler %s\n", __VERSION__);
  std::printf("# cpu %s\n", cpu_model().c_str());
  std::printf("# nproc %u\n", std::thread::hardware_concurrency());
  std::printf("# pool_fs %s\n", fs_type(opt.work).c_str());
  if (file_size_limit() == UINT64_MAX)
    std::printf("# file_size_limit unlimited\n");
  else
    std::printf("# file_size_limit %llu bytes\n",
                static_cast<unsigned long long>(file_size_limit()));
  std::printf("# seed %llu\n", static_cast<unsigned long long>(opt.seed));
  std::printf("# persistence flush/drain counted only (no cache-line "
              "write-back, no modelled media delay)\n");
  std::printf("# workload %s trace %d seconds %g setups %d\n",
              opt.workload.c_str(), trace, opt.seconds, kSetups);
  for (const auto& [k, v] : r.notes) std::printf("# %s %s\n", k.c_str(), v.c_str());

  out.e2e["peak_rss_mb"] = peak_rss_mb();
  const auto& defs = opt.trace ? layer_metrics() : e2e_metrics();
  const auto& values = opt.trace ? out.layer : out.e2e;
  for (const MetricDef& m : defs) {
    const auto it = values.find(m.name);
    r.metric(m.name, m.unit, it == values.end() ? 0.0 : it->second);
  }
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

// workloads.hpp — the four perfbench workloads and the metric catalog they
// report into.
//
// Every run prints every metric of its kind: the end-to-end catalog when
// untraced, the per-layer catalog when traced.  Each workload maps the
// generic end-to-end names onto its own operations (perfbench/METRICS.md
// records the mapping); a per-layer metric of a layer the workload never
// reaches reads 0.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "api/runtime.hpp"
#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where pools live (created fresh, removed at exit).
  std::filesystem::path work;
  /// Where a traced run writes its spans.
  std::filesystem::path trace_dir;
};

/// Set-ups per run (the last one is kept); setup_s is their median.
inline constexpr int kSetups = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run.  All of them hold
/// still under hypervisor CPU steal (CPU time, bytes, counts); the
/// wall-clock throughput and latency of the same phase are printed as notes
/// beside them.
inline const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> k = {{"cpu_us_per_op", "us"},
                                           {"ok_frac", "frac"},
                                           {"space_amp", "ratio"},
                                           {"setup_s", "s"},
                                           {"peak_rss_mb", "MiB"}};
  return k;
}

/// Per-layer metrics, printed by every traced run.
inline const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> k = {
      {"service.ops_per_commit", "ops"},
      {"service.busy_shed", "count"},
      {"service.compactions", "count"},
      {"service.compacted_bytes", "bytes"},
      {"service.parse_us", "us"},
      {"service.encode_us", "us"},
      {"service.wire_residual_us", "us"},
      {"map.keys_per_bucket", "keys"},
      {"map.get_us", "us"},
      {"map.put_in_tx_us", "us"},
      {"pmemkit.commit_us", "us"},
      {"pmemkit.fences_per_set", "fences"},
      {"pmemkit.fragmentation", "frac"},
      {"pmemkit.reserved_bytes", "bytes"},
      {"pmemkit.live_bytes", "bytes"},
      {"pmemkit.lane_waits", "count"},
      {"pmemkit.run_lock_skips", "count"},
      {"pmemkit.run_lock_waits", "count"},
      {"pmemkit.fences_per_tx", "fences"},
      {"pmemkit.tx_alloc_us", "us"},
      {"pmemkit.tx_free_us", "us"},
      {"pmemkit.tx_commit_us", "us"},
      {"pmemkit.tx_scaling_1_to_4", "x"},
      {"tierkv.hit_rate", "frac"},
      {"tierkv.prefetch_accuracy", "frac"},
      {"tierkv.promotions", "count"},
      {"tierkv.demotions", "count"},
      {"tierkv.bytes_moved_per_get", "bytes"},
      {"tierkv.get_hit_us", "us"},
      {"tierkv.get_miss_us", "us"},
      {"tierkv.put_in_tx_us", "us"},
      {"tierkv.compression_ratio", "x"},
      {"core.chunks_written_frac", "frac"},
      {"core.write_amp", "x"},
      {"core.save_threads", "threads"},
      {"core.fences_per_save", "fences"},
      {"core.open_ms", "ms"},
      {"core.load_ms", "ms"},
      {"trace.overhead_cpu_us_per_op", "us"},
      {"trace.overhead_write_p50_us", "us"},
      {"trace.overhead_read_p50_us", "us"}};
  return k;
}

/// What a workload measured; main() turns it into the printed report.
struct Outcome {
  Report report;                        ///< correctness + notes
  std::map<std::string, double> e2e;    ///< untraced end-to-end values
  std::map<std::string, double> layer;  ///< traced per-layer values
};

/// The generic end-to-end numbers of one timed phase.
struct Phase {
  double ops_s = 0;
  Pct write_p50, write_tail, read_p50, read_tail;
  double cpu_us_per_op = 0;  ///< process CPU per operation
  double steal_frac = 0;     ///< host CPU steal during the phase
};

/// Times the set-ups of one run.  setup_s is the median CPU seconds of a
/// set-up (all threads of the process); wall seconds are noted beside it.
class SetupClock {
 public:
  void start() {
    cpu0_ = process_cpu_s();
    t0_ = now_ns();
  }
  void stop() {
    cpu_s_.push_back(process_cpu_s() - cpu0_);
    wall_s_.push_back(static_cast<double>(now_ns() - t0_) / 1e9);
  }
  [[nodiscard]] double median_cpu_s() const;
  void note(Report& r) const;

 private:
  double cpu0_ = 0;
  std::uint64_t t0_ = 0;
  std::vector<double> cpu_s_, wall_s_;
};

/// Fills the e2e map from a phase plus the run-level numbers.
void put_e2e(Outcome& o, const Phase& p, const Report& r, double space_amp,
             const SetupClock& setup);
/// Fills trace.overhead_* (traced minus untraced).
void put_overhead(Outcome& o, const Phase& untraced, const Phase& traced);
/// The workload's own names for a phase's wall-clock figures.
struct PhaseNames {
  const char* ops;  ///< throughput, 1/s
  const char* write_p50;
  const char* write_tail;
  const char* read_p50;
  const char* read_tail;  ///< nullptr: too few samples for a tail
  double scale = 1;         ///< µs -> printed unit
  const char* unit = "us";
};

/// Prints a phase's wall-clock throughput and latencies as notes, each
/// with its unit, sample count and samples beyond, plus the host steal.
void note_phase(Report& r, const Phase& p, const PhaseNames& names);

/// The paper's Setup #1 machine with its namespaces under `dir` (pools go
/// to pmem2, the CXL namespace); throws on failure.
[[nodiscard]] cxlpmem::api::Runtime make_runtime(
    const std::filesystem::path& dir);

[[nodiscard]] Outcome run_kv(const Options& opt, bool tiered);
[[nodiscard]] Outcome run_ckpt(const Options& opt);
[[nodiscard]] Outcome run_pool_tx(const Options& opt);

}  // namespace perfbench

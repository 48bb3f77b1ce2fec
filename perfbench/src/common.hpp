// common.hpp — measurement plumbing shared by every perfbench workload:
// the seeded generator, percentiles, spans, metric records, the value
// codec and the host stamp.
#pragma once

#include <pthread.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

// --- time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// --- the seeded generator ---------------------------------------------------

/// splitmix64-seeded xoshiro256**.  Every input a workload sends to the
/// program is drawn from one of these, keyed by (seed, stream id), so the
/// same seed always yields the same inputs.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next() noexcept;
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return n ? next() % n : 0; }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_[4];
};

/// Zipfian ranks over [0, n) with exponent `theta` (inverse-CDF table).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  std::uint64_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- percentiles ------------------------------------------------------------

/// A percentile reported with the sample count it was taken from and how
/// many samples lie beyond it — a tail is only trustworthy with >= 10
/// samples beyond it.
struct Pct {
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it.  Reorders `v`.  Empty input gives {0, 0, 0}.
[[nodiscard]] Pct percentile(std::vector<double>& v, double q);

/// Latency samples of one operation type over a timed phase, split into
/// `windows` equal time windows.  Each window keeps a bounded uniform
/// (reservoir) sample, so memory does not grow with the operation rate, and
/// counts every operation.  A phase reports the median over windows of the
/// per-window figure, which a transient stall in one window cannot move.
class Windows {
 public:
  explicit Windows(int windows = 15, std::size_t cap = 4096);
  void add(int window, double us);
  /// Appends another thread's samples (same window count).
  void merge(const Windows& other);
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t count(int window) const {
    return seen_[static_cast<std::size_t>(window)];
  }
  [[nodiscard]] int windows() const noexcept {
    return static_cast<int>(seen_.size());
  }
  /// Median over non-empty windows of the per-window q-percentile; `n` is
  /// the total count and `beyond` the summed samples beyond.
  [[nodiscard]] Pct median_of(double q) const;
  /// Median over windows of count(window) / window_s.
  [[nodiscard]] double median_rate(double window_s) const;
  void clear();

 private:
  std::size_t cap_;
  std::vector<std::vector<double>> kept_;
  std::vector<std::uint64_t> seen_;
  Rng rng_;
};

// --- spans ------------------------------------------------------------------

/// One timed interval at a layer boundary.  `parent` indexes the span that
/// caused it in the same recorder (-1 = root); spans of one request share
/// `req`.
struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t req = 0;
};

/// Per-thread span recorder: spans stay in memory and are written out when
/// the benchmark ends.  Past `limit` spans it keeps reading the clock (so
/// the traced run pays the same per-call cost) but stores nothing more.
class Tracer {
 public:
  explicit Tracer(std::size_t limit = 1u << 20) : limit_(limit) {}
  std::int32_t begin(std::uint32_t name, std::int32_t parent,
                     std::uint64_t req) {
    return add(name, now_ns(), 0, parent, req);
  }
  void end(std::int32_t id) {
    const std::uint64_t t = now_ns();
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// Records an interval measured by the caller; -1 once full.
  std::int32_t add(std::uint32_t name, std::uint64_t start, std::uint64_t end,
                   std::int32_t parent, std::uint64_t req) {
    if (spans_.size() >= limit_) return -1;
    spans_.push_back(Span{start, end, name, parent, req});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::vector<Span>& spans() noexcept { return spans_; }

 private:
  std::size_t limit_;
  std::vector<Span> spans_;
};

/// Self time of every span, in ns: its duration minus the part of that
/// interval its children cover (overlapping children counted once,
/// children clipped to the parent).
[[nodiscard]] std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Median self time in µs of the spans named `name` (0 when none).
[[nodiscard]] Pct self_us(const std::vector<Span>& spans,
                          const std::vector<double>& self_ns,
                          std::uint32_t name, double q = 0.5);

struct Report;

/// Writes spans as JSON lines {"name","start","end","parent","req"},
/// stopping before the file would pass the process's file-size limit;
/// notes the file and how many spans it holds in `report`.
void write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans,
                 const std::vector<std::string>& names, Report& report);

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one benchmark invocation reports.  `notes` are printed as
/// "# key value" lines before the result line (sizes, sample counts,
/// percentile ranks, the stamp).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(std::string name, std::string unit, double value) {
    metrics.push_back(Metric{std::move(name), std::move(unit), value});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  void fail(std::uint64_t n, const std::string& why);
};

/// {"correct":…, "attempted":…, "failed":…, "metrics":{…}} on one line.
[[nodiscard]] std::string result_json(const Report& r);

// --- the value codec --------------------------------------------------------

/// A seeded, partly compressible byte pool values are cut from: segments
/// of fresh random bytes alternate with repeats of nearby earlier
/// segments, so the lz codec finds some redundancy but never a constant
/// fill.
class ValuePool {
 public:
  explicit ValuePool(std::uint64_t seed, std::size_t bytes = 1u << 20);
  [[nodiscard]] std::string_view slice(std::uint64_t hash,
                                       std::size_t len) const;

 private:
  std::string bytes_;
};

/// Bytes of the "<key>|<version>|<checksum>|" header of a value.
[[nodiscard]] inline std::size_t value_header_bytes(std::string_view key) {
  return key.size() + 1 + 8 + 1 + 16 + 1;
}

/// Appends the value for (key, version) of exactly `len` bytes:
/// "<key>|<version hex>|<checksum hex>|" then a body cut from `pool`.  The
/// checksum covers the body, so a value also self-validates.
void append_value(std::string& out, const ValuePool& pool,
                  std::string_view key, std::uint32_t version,
                  std::size_t len);

/// True when `value` is exactly the value append_value would produce for
/// (key, version, len).
[[nodiscard]] bool check_value(std::string_view value, const ValuePool& pool,
                               std::string_view key, std::uint32_t version,
                               std::size_t len);

// --- host stamp -------------------------------------------------------------

/// Filesystem type name of the filesystem holding `path` ("ext4", "tmpfs",
/// "overlay", …, or "0x<magic>").
[[nodiscard]] std::string fs_type(const std::filesystem::path& path);
/// Last-level cache size in bytes (0 when the host does not report one).
[[nodiscard]] std::uint64_t llc_bytes();
/// The largest file this process may write (RLIMIT_FSIZE), in bytes;
/// UINT64_MAX when unlimited.
[[nodiscard]] std::uint64_t file_size_limit();
[[nodiscard]] std::string cpu_model();
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// CPU seconds consumed so far by this process.
[[nodiscard]] double process_cpu_s();

/// CPU seconds the process spent in one window and the share of all vCPU
/// time the hypervisor stole from the guest meanwhile.
struct WindowCpu {
  double cpu_s = 0;
  double steal = 0;
};

/// Samples the process's CPU time and the host's CPU steal at every window
/// boundary of a timed phase [t0, t0 + span), on a thread of its own,
/// optionally leaving out one thread's CPU (the load generator's).
/// Destroying it joins.
class CpuWindows {
 public:
  CpuWindows(std::uint64_t t0, std::uint64_t span, int windows,
             const pthread_t* exclude = nullptr);
  ~CpuWindows();
  CpuWindows(const CpuWindows&) = delete;
  CpuWindows& operator=(const CpuWindows&) = delete;
  /// Joins the sampler; returns what each window consumed.
  std::vector<WindowCpu> finish();

 private:
  struct Sample {
    double cpu = 0;
    std::uint64_t steal = 0, total = 0;
  };
  Sample sample() const;

  clockid_t excluded_ = 0;
  bool has_excluded_ = false;
  std::vector<Sample> at_;
  std::thread thread_;
};

/// Steal within which a sample counts as quiet as the quietest one: about
/// 2% of CPU time per operation at the rate neighbours' load inflates it.
inline constexpr double kStealTolerance = 0.01;

/// Median of the values measured while the host was quietest: over the
/// (steal, value) samples with the least host CPU steal — the third of
/// them (at least three), plus every other one whose steal is within
/// kStealTolerance of the least.  On a shared host CPU time per operation
/// rises and falls with the neighbours' load — SMT siblings and the shared
/// cache slow every cycle — and steal is the guest's only view of that
/// load.
[[nodiscard]] double quiet_median(
    std::vector<std::pair<double, double>> steal_value);

/// quiet_median of the per-window CPU µs per operation.
[[nodiscard]] double quiet_cpu_us_per_op(const std::vector<WindowCpu>& windows,
                                         const Windows& ops);

/// The share of all vCPU time the hypervisor stole from the guest since
/// construction (/proc/stat).
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double steal_frac() const;

 private:
  std::uint64_t steal0_ = 0, total0_ = 0;
};

}  // namespace perfbench

#include "common.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <tuple>

#include "pmemkit/checksum.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& x) noexcept {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0xD1342543DE82EF95ull + stream;
  for (std::uint64_t& s : s_) s = splitmix(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Zipf::Zipf(std::uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::uint64_t Zipf::draw(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::uint64_t>(it - cdf_.begin());
}

Pct percentile(std::vector<double>& v, double q) {
  if (v.empty()) return {};
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return Pct{v[rank - 1], n, n - rank};
}

Windows::Windows(int windows, std::size_t cap)
    : cap_(cap),
      kept_(static_cast<std::size_t>(windows)),
      seen_(static_cast<std::size_t>(windows), 0),
      rng_(0, 0x77696e64ull) {
  for (auto& k : kept_) k.reserve(cap_);
}

void Windows::add(int window, double us) {
  const std::size_t w = static_cast<std::size_t>(
      std::clamp(window, 0, static_cast<int>(seen_.size()) - 1));
  const std::uint64_t n = ++seen_[w];
  if (kept_[w].size() < cap_) {
    kept_[w].push_back(us);
  } else if (const std::uint64_t j = rng_.below(n); j < cap_) {
    kept_[w][static_cast<std::size_t>(j)] = us;
  }
}

void Windows::merge(const Windows& other) {
  for (std::size_t w = 0; w < seen_.size() && w < other.seen_.size(); ++w) {
    seen_[w] += other.seen_[w];
    kept_[w].insert(kept_[w].end(), other.kept_[w].begin(),
                    other.kept_[w].end());
  }
}

std::uint64_t Windows::count() const {
  std::uint64_t n = 0;
  for (const std::uint64_t s : seen_) n += s;
  return n;
}

Pct Windows::median_of(double q) const {
  std::vector<double> per;
  Pct out;
  for (std::size_t w = 0; w < kept_.size(); ++w) {
    if (kept_[w].empty()) continue;
    std::vector<double> v = kept_[w];
    const Pct p = percentile(v, q);
    per.push_back(p.value);
    out.n += seen_[w];
    out.beyond += static_cast<std::size_t>(
        static_cast<double>(p.beyond) * static_cast<double>(seen_[w]) /
        static_cast<double>(p.n));
  }
  out.value = percentile(per, 0.5).value;
  return out;
}

double Windows::median_rate(double window_s) const {
  std::vector<double> rates;
  for (const std::uint64_t s : seen_)
    rates.push_back(static_cast<double>(s) / window_s);
  return percentile(rates, 0.5).value;
}

void Windows::clear() {
  for (auto& k : kept_) k.clear();
  std::fill(seen_.begin(), seen_.end(), 0);
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0 &&
        static_cast<std::size_t>(spans[i].parent) < spans.size())
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end > s.start ? s.end - s.start : 0;
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans[c].start, s.start);
      const std::uint64_t b = std::min(spans[c].end, s.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = static_cast<double>(dur - std::min(dur, covered));
  }
  return self;
}

Pct self_us(const std::vector<Span>& spans, const std::vector<double>& self_ns,
            std::uint32_t name, double q) {
  std::vector<double> v;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) v.push_back(self_ns[i] / 1000.0);
  return percentile(v, q);
}

void write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans,
                 const std::vector<std::string>& names, Report& report) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  const std::uint64_t limit = file_size_limit();
  std::uint64_t bytes = 0;
  std::size_t written = 0;
  for (const Span& s : spans) {
    const std::string line =
        "{\"name\":\"" +
        (s.name < names.size() ? names[s.name] : std::string("?")) +
        "\",\"start\":" + std::to_string(s.start) +
        ",\"end\":" + std::to_string(s.end) +
        ",\"parent\":" + std::to_string(s.parent) +
        ",\"req\":" + std::to_string(s.req) + "}\n";
    if (bytes + line.size() > limit || !(out << line)) break;
    bytes += line.size();
    ++written;
  }
  report.note("spans_file", path.filename().string() + " " +
                                std::to_string(written) + " of " +
                                std::to_string(spans.size()) + " spans");
}

void Report::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed += n;
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL (%llu): %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

std::string result_json(const Report& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + fmt_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

ValuePool::ValuePool(std::uint64_t seed, std::size_t bytes) {
  Rng rng(seed, 0x7661'6c75'6573ull);  // "values"
  bytes_.reserve(bytes);
  while (bytes_.size() < bytes) {
    const std::size_t seg = static_cast<std::size_t>(rng.range(32, 160));
    if (bytes_.size() > 1024 && rng.below(2) == 0) {
      // Repeat a segment from the last KiB: redundancy close enough that a
      // per-value codec finds it inside any value cut from the pool.
      const std::size_t from = bytes_.size() - static_cast<std::size_t>(
                                                   rng.range(seg, 1024));
      bytes_.append(bytes_, from, seg);
    } else {
      for (std::size_t i = 0; i < seg; ++i)
        bytes_.push_back(static_cast<char>('!' + rng.below(90)));
    }
  }
  bytes_.resize(bytes);
}

std::string_view ValuePool::slice(std::uint64_t hash, std::size_t len) const {
  const std::size_t off =
      static_cast<std::size_t>(hash % (bytes_.size() - len));
  return std::string_view(bytes_).substr(off, len);
}

namespace {

std::uint64_t value_hash(std::string_view key, std::uint32_t version) {
  std::uint64_t h = cxlpmem::pmemkit::fingerprint64(key.data(), key.size());
  return h ^ (static_cast<std::uint64_t>(version) * 0x9E3779B97F4A7C15ull);
}

void append_hex(std::string& out, std::uint64_t v, int digits) {
  static const char* kHex = "0123456789abcdef";
  for (int i = digits - 1; i >= 0; --i) out.push_back(kHex[(v >> (4 * i)) & 15]);
}

}  // namespace

void append_value(std::string& out, const ValuePool& pool,
                  std::string_view key, std::uint32_t version,
                  std::size_t len) {
  const std::size_t header = value_header_bytes(key);
  const std::size_t body_len = len > header ? len - header : 0;
  const std::string_view body =
      pool.slice(value_hash(key, version), body_len);
  out.append(key);
  out.push_back('|');
  append_hex(out, version, 8);
  out.push_back('|');
  append_hex(out, cxlpmem::pmemkit::fingerprint64(body.data(), body.size()), 16);
  out.push_back('|');
  out.append(body);
}

bool check_value(std::string_view value, const ValuePool& pool,
                 std::string_view key, std::uint32_t version,
                 std::size_t len) {
  const std::size_t header = value_header_bytes(key);
  if (value.size() != std::max(len, header)) return false;
  std::string expect_head;
  expect_head.reserve(header);
  const std::string_view body = value.substr(header);
  expect_head.append(key);
  expect_head.push_back('|');
  append_hex(expect_head, version, 8);
  expect_head.push_back('|');
  append_hex(expect_head, cxlpmem::pmemkit::fingerprint64(body.data(), body.size()),
             16);
  expect_head.push_back('|');
  if (value.substr(0, header) != expect_head) return false;
  return body == pool.slice(value_hash(key, version), body.size());
}

std::string fs_type(const std::filesystem::path& path) {
  struct statfs sf = {};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53ul, "ext4"},        {0x01021994ul, "tmpfs"},
      {0x58465342ul, "xfs"},     {0x9123683Eul, "btrfs"},
      {0x794C7630ul, "overlay"}, {0x6969ul, "nfs"},
      {0x65735546ul, "fuse"},    {0x858458F6ul, "ramfs"}};
  const auto it = kNames.find(static_cast<unsigned long>(sf.f_type));
  if (it != kNames.end()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(sf.f_type));
  return buf;
}

std::uint64_t llc_bytes() {
  for (int idx = 4; idx >= 2; --idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::uint64_t mult = 1;
    if (s.back() == 'K') mult = 1ull << 10;
    if (s.back() == 'M') mult = 1ull << 20;
    if (s.back() == 'G') mult = 1ull << 30;
    return std::stoull(s) * mult;
  }
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

std::uint64_t file_size_limit() {
  struct rlimit rl = {};
  if (::getrlimit(RLIMIT_FSIZE, &rl) != 0 || rl.rlim_cur == RLIM_INFINITY)
    return UINT64_MAX;
  return static_cast<std::uint64_t>(rl.rlim_cur);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  struct rusage ru = {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench

namespace perfbench {

double process_cpu_s() {
  struct rusage ru = {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

namespace {

/// (steal, total) jiffies of the aggregate "cpu" line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string tag;
  in >> tag;
  std::uint64_t v[8] = {};
  for (std::uint64_t& x : v) in >> x;
  std::uint64_t total = 0;
  for (const std::uint64_t x : v) total += x;
  return {v[7], total};
}

}  // namespace

CpuWindows::CpuWindows(std::uint64_t t0, std::uint64_t span, int windows,
                       const pthread_t* exclude) {
  if (exclude != nullptr)
    has_excluded_ = ::pthread_getcpuclockid(*exclude, &excluded_) == 0;
  at_.push_back(sample());
  thread_ = std::thread([this, t0, span, windows] {
    for (int w = 1; w <= windows; ++w) {
      const std::uint64_t due =
          t0 + span * static_cast<std::uint64_t>(w) /
                   static_cast<std::uint64_t>(windows);
      const std::uint64_t now = now_ns();
      if (due > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      at_.push_back(sample());
    }
  });
}

CpuWindows::~CpuWindows() {
  if (thread_.joinable()) thread_.join();
}

CpuWindows::Sample CpuWindows::sample() const {
  Sample s;
  s.cpu = process_cpu_s();
  if (has_excluded_) {
    struct timespec ts = {};
    ::clock_gettime(excluded_, &ts);
    s.cpu -= static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) / 1e9;
  }
  std::tie(s.steal, s.total) = cpu_jiffies();
  return s;
}

std::vector<WindowCpu> CpuWindows::finish() {
  if (thread_.joinable()) thread_.join();
  std::vector<WindowCpu> per;
  for (std::size_t i = 1; i < at_.size(); ++i) {
    const Sample& a = at_[i - 1];
    const Sample& b = at_[i];
    per.push_back(WindowCpu{
        b.cpu - a.cpu,
        b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                static_cast<double>(b.total - a.total)
                          : 0.0});
  }
  return per;
}

double quiet_median(std::vector<std::pair<double, double>> steal_value) {
  // Rank by steal alone: ties keep time order, so equal steal never
  // favours the smaller values.
  std::stable_sort(steal_value.begin(), steal_value.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t keep = std::min(
      steal_value.size(), std::max<std::size_t>(3, steal_value.size() / 3));
  // On a quiet host every sample is as quiet as the quietest: keep them
  // all, so the median rests on the whole run, not on a third of it.
  while (keep < steal_value.size() &&
         steal_value[keep].first <= steal_value.front().first + kStealTolerance)
    ++keep;
  std::vector<double> quiet;
  for (std::size_t i = 0; i < keep; ++i) quiet.push_back(steal_value[i].second);
  return percentile(quiet, 0.5).value;
}

double quiet_cpu_us_per_op(const std::vector<WindowCpu>& windows,
                           const Windows& ops) {
  std::vector<std::pair<double, double>> per;
  for (int w = 0; w < ops.windows() && w < static_cast<int>(windows.size());
       ++w)
    if (ops.count(w) > 0)
      per.emplace_back(windows[static_cast<std::size_t>(w)].steal,
                       windows[static_cast<std::size_t>(w)].cpu_s * 1e6 /
                           static_cast<double>(ops.count(w)));
  return quiet_median(std::move(per));
}

StealMeter::StealMeter() { std::tie(steal0_, total0_) = cpu_jiffies(); }

double StealMeter::steal_frac() const {
  const auto [steal, total] = cpu_jiffies();
  return total > total0_ ? static_cast<double>(steal - steal0_) /
                               static_cast<double>(total - total0_)
                         : 0.0;
}

}  // namespace perfbench

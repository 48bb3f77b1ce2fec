// perfbench_unit — checks on the benchmark's own measurement code:
// percentile selection (with the sample count reported beside it), span
// self-time arithmetic, span files under a file-size limit, the value
// checker, and the seed-only request stream.  Exits non-zero on the first
// failed check.
//
//   cmake --build <build> --target perfbench_unit && <build>/perfbench_unit
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "gen.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 100 samples, reversed
  const Pct p50 = percentile(v, 0.5);
  check(p50.value == 50 && p50.n == 100 && p50.beyond == 50, "p50 of 1..100");
  const Pct p99 = percentile(v, 0.99);
  check(p99.value == 99 && p99.beyond == 1, "p99 of 1..100 has 1 beyond");
  const Pct p90 = percentile(v, 0.90);
  check(p90.value == 90 && p90.beyond == 10, "p90 of 1..100 has 10 beyond");
  const Pct top = percentile(v, 1.0);
  check(top.value == 100 && top.beyond == 0, "p100 is the maximum");
  std::vector<double> one = {7};
  const Pct single = percentile(one, 0.99);
  check(single.value == 7 && single.n == 1 && single.beyond == 0,
        "one sample is every percentile");
  std::vector<double> none;
  const Pct empty = percentile(none, 0.5);
  check(empty.value == 0 && empty.n == 0, "empty input reports n = 0");
  std::vector<double> ten = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  check(percentile(ten, 0.5).value == 5, "nearest rank, not interpolated");
  // (steal, value): the three quietest are 12, 10, 11.
  check(quiet_median({{0.3, 100}, {0.1, 10}, {0.2, 20}, {0.05, 12},
                      {0.4, 200}, {0.15, 11}}) == 11,
        "quiet median keeps the least-stolen third, at least three");
  // Steal within the tolerance of the quietest counts as just as quiet:
  // 12, 14, 11, 13, 15 are kept, not only the least-stolen three.
  check(quiet_median({{0.05, 12}, {0.052, 14}, {0.055, 11}, {0.058, 13},
                      {0.059, 15}, {0.2, 20}, {0.3, 100}, {0.4, 200},
                      {0.5, 300}}) == 13,
        "quiet median keeps every sample within the steal tolerance");
  // Equal steal keeps every sample, so ties never favour small values.
  check(quiet_median({{0, 30}, {0, 20}, {0, 25}, {0, 1}, {0, 2}, {0, 3}}) == 3,
        "equal steal keeps all samples");
}

void spans() {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] runs
  // past the parent's end; a grandchild inside the first child.
  std::vector<Span> s = {
      {0, 100, 0, -1, 1}, {10, 30, 1, 0, 1}, {20, 50, 1, 0, 1},
      {90, 120, 1, 0, 1}, {12, 18, 2, 1, 1}, {200, 260, 0, -1, 2}};
  const std::vector<double> self = self_times_ns(s);
  check(self[0] == 50, "parent self = 100 - union(10..50, 90..100)");
  check(self[1] == 14, "child self = 20 - grandchild 6");
  check(self[2] == 30 && self[3] == 30 && self[4] == 6,
        "leaf self = duration");
  check(self[5] == 60, "a childless root keeps its whole duration");
  const Pct med = self_us(s, self, 1);
  check(med.n == 3 && med.value == 0.030, "median self time in us by name");
  Tracer tr(2);
  const std::int32_t a = tr.begin(0, -1, 0);
  tr.end(a);
  tr.add(1, 5, 6, a, 0);
  check(tr.add(1, 7, 8, a, 0) == -1 && tr.spans().size() == 2,
        "a full tracer stores nothing more");
}

void span_file_limit() {
  // Under a file-size limit a span file stops short of it, and the note
  // says how many spans it holds, instead of the write killing the run.
  namespace fs = std::filesystem;
  std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit old = {};
  ::getrlimit(RLIMIT_FSIZE, &old);
  struct rlimit lim = old;
  lim.rlim_cur = 1000;
  check(::setrlimit(RLIMIT_FSIZE, &lim) == 0, "lower the file-size limit");
  const fs::path dir = fs::temp_directory_path() /
                       ("perfbench-unit-" + std::to_string(::getpid()));
  const std::vector<Span> spans(100, Span{1, 2, 0, -1, 7});
  Report r;
  write_spans(dir / "spans.jsonl", spans, {"x"}, r);
  ::setrlimit(RLIMIT_FSIZE, &old);
  check(fs::file_size(dir / "spans.jsonl") <= 1000,
        "span file stays within the limit");
  check(r.notes.size() == 1 &&
            r.notes[0].second.find(" of 100 spans") != std::string::npos &&
            r.notes[0].second.find(" 100 of ") == std::string::npos,
        "span note counts the spans written out of all");
  fs::remove_all(dir);
}

void values() {
  const ValuePool pool(42);
  std::string v;
  append_value(v, pool, "w1:77", 3, 700);
  check(v.size() == 700, "value has the requested length");
  check(check_value(v, pool, "w1:77", 3, 700), "intact value passes");
  check(!check_value(v, pool, "w1:77", 4, 700), "wrong version fails");
  check(!check_value(v, pool, "w1:78", 3, 700), "wrong key fails");
  check(!check_value(v, pool, "w1:77", 3, 701), "wrong length fails");
  std::size_t caught = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::string bad = v;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    if (!check_value(bad, pool, "w1:77", 3, 700)) ++caught;
  }
  check(caught == v.size(), "every single flipped byte is caught");
  std::string a, b;
  append_value(a, pool, "k", 1, 128);
  append_value(b, pool, "k", 2, 128);
  check(a != b, "versions differ in content");
}

void streams() {
  for (const KvShape& shape : {kv_write_shape(), kv_read_tiered_shape()}) {
    const std::uint64_t a = stream_digest(shape, 7, 500);
    check(a == stream_digest(shape, 7, 500),
          "same seed, byte-identical request stream");
    check(a != stream_digest(shape, 8, 500), "another seed, another stream");
  }
  // Connections own disjoint keys.
  const KvShape shape = kv_read_tiered_shape();
  std::set<std::string> seen;
  for (int c = 0; c < shape.conns; ++c) {
    const KvStream s(shape, 1, c);
    for (std::uint32_t id = 0; id < s.keys(); ++id) seen.insert(s.key(id));
  }
  check(seen.size() == static_cast<std::size_t>(shape.conns) * shape.keys_per_conn,
        "connections own disjoint keys");
}

void catalog() {
  std::set<std::string> names;
  for (const MetricDef& m : e2e_metrics()) names.insert(m.name);
  for (const MetricDef& m : layer_metrics()) names.insert(m.name);
  check(names.size() == e2e_metrics().size() + layer_metrics().size(),
        "metric names are unique");
  check(names.count("setup_s") == 1, "setup_s is an end-to-end metric");
}

}  // namespace

int main() {
  percentiles();
  spans();
  span_file_limit();
  values();
  streams();
  catalog();
  if (failures == 0) std::printf("perfbench_unit: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

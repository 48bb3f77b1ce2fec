// micro_tierkv — the tiered DRAM↔CXL KV cache under the LLM-serving
// workload shape: sequences of compressible KV blocks, zipfian-skewed
// sequence popularity, blocks within a sequence read in order.
//
// Drives the tierkv engine directly (no sockets — micro_kv_service owns
// the wire path) over a grid of DRAM fraction {5, 25, 100}% of the raw
// working set x codec {lz, identity}, plus a full sequential scan at 25%
// DRAM.  Per point: hit rate, GET p50/p99, cold-tier compression ratio,
// promotions.  Emits BENCH_tierkv.json.
//
//   micro_tierkv [--smoke] [--sequences N] [--blocks N] [--value-bytes N]
//                [--requests N] [--json PATH]
//
// --smoke (used from ctest) shrinks the working set and fails the process
// when
//   - the lz cold tier stores less than 1.5x raw capacity at the 25% DRAM
//     zipfian point, or
//   - any GET misbehaves (wrong bytes, a lost key, an exception).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/cxlpmem.hpp"
#include "bench_json.hpp"
#include "service/durable_map.hpp"
#include "tierkv/cache.hpp"

namespace fs = std::filesystem;
using namespace cxlpmem;
using Clock = std::chrono::steady_clock;

namespace {

struct Config {
  bool smoke = false;
  int sequences = 64;
  int blocks = 64;
  int value_bytes = 4096;
  int requests = 1000;  ///< zipfian sequence reads per point
  fs::path json = "BENCH_tierkv.json";
};

struct PointResult {
  std::string workload;
  int dram_pct = 0;
  std::string codec;
  double hit_rate = 0;
  double p50_us = 0;
  double p99_us = 0;
  double compression_ratio = 0;
  std::uint64_t promotions = 0;
  std::uint64_t errors = 0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Zipfian sampler over sequence ids, fixed seed: every grid point replays
/// the identical request stream, so points differ only in their settings.
class Zipf {
 public:
  Zipf(int n, double s, std::uint32_t seed) : gen_(seed) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  int next() {
    const double u = uni_(gen_);
    return static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  std::mt19937 gen_;
  std::uniform_real_distribution<double> uni_{0.0, 1.0};
};

std::string block_key(int seq, int blk) {
  return "seq" + std::to_string(seq) + "/b" + std::to_string(blk);
}

/// A KV block the way LLM serving stores one: long repeated token runs
/// with a per-block header so every value is distinct and verifiable.
std::string block_value(int seq, int blk, int bytes) {
  std::string v = "[" + block_key(seq, blk) + "]";
  while (v.size() < static_cast<std::size_t>(bytes)) {
    v += "token-run token-run token-run ";
    v += std::to_string((seq * 131 + blk * 17 + static_cast<int>(v.size())) %
                        97);
  }
  v.resize(static_cast<std::size_t>(bytes));
  return v;
}

PointResult run_point(api::Runtime& rt, const Config& cfg,
                      const std::string& workload, int dram_pct,
                      const std::string& codec, int index) {
  PointResult out;
  out.workload = workload;
  out.dram_pct = dram_pct;
  out.codec = codec;

  const std::uint64_t raw_working_set =
      static_cast<std::uint64_t>(cfg.sequences) *
      static_cast<std::uint64_t>(cfg.blocks) *
      static_cast<std::uint64_t>(cfg.value_bytes);
  // 100% gets headroom for keys + per-entry overhead so "everything fits"
  // actually means everything fits.
  const std::uint64_t budget =
      dram_pct >= 100 ? raw_working_set * 13 / 10
                      : std::max<std::uint64_t>(
                            raw_working_set * static_cast<std::uint64_t>(
                                                  dram_pct) / 100,
                            64 * 1024);

  api::PoolSpec spec;
  spec.file = "tierkv-bench-" + std::to_string(index) + ".pool";
  spec.size = std::max<std::uint64_t>(raw_working_set * 2, 32ull << 20);
  auto pool = rt.open_or_create_pool("pmem2", "tierkv-bench", spec);
  if (!pool.ok()) {
    std::fprintf(stderr, "pool: %s\n", pool.error().to_string().c_str());
    out.errors = 1;
    return out;
  }
  service::DurableMap map(pool.value().pmem());
  tierkv::TierOptions topts;
  topts.codec = codec;
  topts.dram_bytes = budget;
  tierkv::TieredCache tier(map, topts);

  for (int s = 0; s < cfg.sequences; ++s)
    for (int b = 0; b < cfg.blocks; ++b)
      tier.put(block_key(s, b), block_value(s, b, cfg.value_bytes));

  // Accesses below are measured as deltas against the post-load snapshot,
  // so the write-allocate traffic of the load does not pollute hit rates.
  const tierkv::TierStats s0 = tier.stats();
  std::vector<double> lat_us;
  std::uint64_t errors = 0;
  const auto read_run = [&](int seq) {
    for (int b = 0; b < cfg.blocks; ++b) {
      const std::string key = block_key(seq, b);
      const auto t0 = Clock::now();
      std::optional<std::string> got;
      try {
        got = tier.get(key);
      } catch (const pmemkit::Error& e) {
        ++errors;
        continue;
      }
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           Clock::now() - t0)
                           .count());
      if (!got.has_value() || *got != block_value(seq, b, cfg.value_bytes))
        ++errors;
    }
  };
  if (workload == "zipfian") {
    Zipf zipf(cfg.sequences, 1.0, /*seed=*/42);
    for (int r = 0; r < cfg.requests; ++r) read_run(zipf.next());
  } else {  // scan: every sequence in order, twice
    for (int pass = 0; pass < 2; ++pass)
      for (int s = 0; s < cfg.sequences; ++s) read_run(s);
  }

  const tierkv::TierStats s1 = tier.stats();
  const std::uint64_t accesses =
      (s1.hits + s1.misses) - (s0.hits + s0.misses);
  out.hit_rate = accesses == 0 ? 0
                               : static_cast<double>(s1.hits - s0.hits) /
                                     static_cast<double>(accesses);
  out.p50_us = percentile(lat_us, 0.50);
  out.p99_us = percentile(lat_us, 0.99);
  out.compression_ratio = s1.compression_ratio();
  out.promotions = s1.promotions - s0.promotions;
  out.errors = errors;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      cfg.smoke = true;
      cfg.sequences = 24;
      cfg.blocks = 32;
      cfg.requests = 200;
    } else if (arg == "--sequences" && i + 1 < argc) {
      cfg.sequences = std::atoi(argv[++i]);
    } else if (arg == "--blocks" && i + 1 < argc) {
      cfg.blocks = std::atoi(argv[++i]);
    } else if (arg == "--value-bytes" && i + 1 < argc) {
      cfg.value_bytes = std::atoi(argv[++i]);
    } else if (arg == "--requests" && i + 1 < argc) {
      cfg.requests = std::atoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      cfg.json = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--sequences N] [--blocks N] "
                   "[--value-bytes N] [--requests N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const fs::path dir = fs::temp_directory_path() / "cxlpmem-micro-tierkv";
  fs::remove_all(dir);
  auto rt = api::RuntimeBuilder::setup_one().base_dir(dir).build();
  if (!rt.ok()) {
    std::fprintf(stderr, "runtime: %s\n", rt.error().to_string().c_str());
    return 1;
  }

  std::vector<PointResult> points;
  int index = 0;
  std::uint64_t total_errors = 0;
  const auto run = [&](const std::string& workload, int pct,
                       const std::string& codec) {
    const PointResult r =
        run_point(rt.value(), cfg, workload, pct, codec, index++);
    std::printf("%-7s dram=%3d%% codec=%-8s  hit %.3f  "
                "p50 %6.1f us  p99 %6.1f us  ratio %.2fx  "
                "(promo %llu, err %llu)\n",
                r.workload.c_str(), r.dram_pct, r.codec.c_str(), r.hit_rate,
                r.p50_us, r.p99_us, r.compression_ratio,
                static_cast<unsigned long long>(r.promotions),
                static_cast<unsigned long long>(r.errors));
    total_errors += r.errors;
    points.push_back(r);
    return r;
  };

  // The headline grid: DRAM fraction x codec, zipfian.
  PointResult key;  // 25% DRAM, lz — the smoke's compression point
  for (const int pct : {5, 25, 100})
    for (const char* codec : {"lz", "identity"}) {
      const PointResult r = run("zipfian", pct, codec);
      if (pct == 25 && std::strcmp(codec, "lz") == 0) key = r;
    }
  // A cold sequential sweep of everything: what TinyLFU keeps out.
  run("scan", 25, "lz");

  std::string json = "{\n";
  json += "  \"bench\": \"micro_tierkv\",\n";
  json += "  \"hw_threads\": " + std::to_string(hw) + ",\n";
  json += "  \"sequences\": " + std::to_string(cfg.sequences) + ",\n";
  json += "  \"blocks_per_sequence\": " + std::to_string(cfg.blocks) + ",\n";
  json += "  \"value_bytes\": " + std::to_string(cfg.value_bytes) + ",\n";
  json += "  \"zipfian_requests\": " + std::to_string(cfg.requests) + ",\n";
  json += "  \"lz_compression_ratio\": " +
          std::to_string(key.compression_ratio) + ",\n";
  json += "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    json += "    {\"workload\": \"" + r.workload + "\"" +
            ", \"dram_pct\": " + std::to_string(r.dram_pct) +
            ", \"codec\": \"" + r.codec + "\"" +
            ", \"hit_rate\": " + std::to_string(r.hit_rate) +
            ", \"p50_us\": " + std::to_string(r.p50_us) +
            ", \"p99_us\": " + std::to_string(r.p99_us) +
            ", \"compression_ratio\": " +
            std::to_string(r.compression_ratio) +
            ", \"promotions\": " + std::to_string(r.promotions) +
            ", \"errors\": " + std::to_string(r.errors) + "}" +
            (i + 1 < points.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  if (!bench::write_bench_json(cfg.json, json)) return 1;
  fs::remove_all(dir);

  if (cfg.smoke) {
    if (total_errors != 0) {
      std::fprintf(stderr, "FAIL: %llu GET errors across the grid\n",
                   static_cast<unsigned long long>(total_errors));
      return 1;
    }
    if (key.compression_ratio < 1.5) {
      std::fprintf(stderr,
                   "FAIL: lz cold-tier compression %.2fx < 1.5x on "
                   "compressible values\n",
                   key.compression_ratio);
      return 1;
    }
    std::printf("smoke OK: no errors, lz ratio %.2fx\n",
                key.compression_ratio);
  }
  return 0;
}

// bench/micro_checkpoint.cpp — checkpoint engine: full vs incremental vs
// parallel saves, across the paper's media profiles.
//
// The §1.2 scenario: a solver checkpoints a large state every epoch, but
// only a small fraction of it changed.  The old engine memcpy'd the whole
// payload single-threaded every time; the chunked engine fingerprints the
// payload (4 KiB pages by default) and rewrites only dirty chunks, with
// the scan and copy fanned out over a thread pool.  This bench measures
// all three shapes — full/1T (the old behaviour), incremental, and
// parallel full — on DRAM-emulated PMem, the CXL expander namespace, and
// an Optane-class DCPMM namespace, and emits BENCH_checkpoint.json.  Each
// save first dirties --dirty-pct % of the payload's 4 KiB pages, whatever
// the store's chunk size.  `inc_write_amp` is the bytes a parallel
// incremental save wrote over the bytes dirtied since its target slot's
// last seal (the two mutations since then; 1.0 = only dirty pages moved).
//
//   micro_checkpoint [--smoke] [--payload-mib N] [--dirty-pct P]
//                    [--json PATH]
//
// --smoke (used from ctest) fails the process when the engine loses its
// reason to exist: an incremental save must write at most twice the bytes
// dirtied since its target's last seal (a count, independent of timing);
// on >= 4-core hosts an incremental ~1%-dirty save of the 64 MiB payload
// must be >= 5x faster than a full single-threaded save, and a 4-thread
// full save must beat 1-thread by > 1.15x (mirroring micro_mt_alloc's
// scaling floor; single-core hosts only get the no-collapse check).
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
#include "core/core.hpp"

namespace core = cxlpmem::core;
namespace profiles = cxlpmem::simkit::profiles;
namespace fs = std::filesystem;

namespace {

struct Config {
  bool smoke = false;
  std::uint64_t payload_bytes = 64ull << 20;
  double dirty_pct = 1.0;
  fs::path json = "BENCH_checkpoint.json";
};

/// One namespace under test.
struct Profile {
  std::string label;  ///< "dram" / "cxl" / "pmem"
  std::unique_ptr<core::DaxNamespace> ns;
  bool allow_volatile = false;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::uint64_t kPage = 4096;

/// Touches ~dirty_pct% of the payload's 4 KiB pages (first word of each),
/// varying with `round` so consecutive saves are never accidental no-ops.
/// Returns the pages touched.
std::vector<std::uint64_t> mutate(std::vector<std::byte>& payload,
                                  double dirty_pct, std::uint64_t round) {
  const std::uint64_t npages = (payload.size() + kPage - 1) / kPage;
  const auto dirty = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(npages * dirty_pct / 100.0));
  const std::uint64_t stride = std::max<std::uint64_t>(1, npages / dirty);
  std::vector<std::uint64_t> pages;
  for (std::uint64_t i = 0; i < dirty; ++i) {
    const std::uint64_t pg = (i * stride + round) % npages;
    std::uint64_t word = (round << 16) ^ pg ^ 0x9e3779b97f4a7c15ull;
    std::memcpy(payload.data() + pg * kPage, &word, sizeof(word));
    pages.push_back(pg);
  }
  return pages;
}

/// Bytes of the pages in `a` or `b`.
std::uint64_t union_bytes(std::vector<std::uint64_t> a,
                          const std::vector<std::uint64_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  return static_cast<std::uint64_t>(std::unique(a.begin(), a.end()) -
                                    a.begin()) *
         kPage;
}

struct Measure {
  double ms = 0;            ///< best save latency
  std::uint64_t chunks_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_dirtied = 0;  ///< since the target's last seal
  int threads_used = 1;
};

/// Times `iters` saves (best-of) on a fresh store configured with
/// `threads`, mutating dirty_pct% before each one.
Measure run_saves(Profile& p, const Config& cfg, const std::string& file,
                  int threads, core::SaveMode mode, int iters) {
  core::CheckpointOptions options;
  options.threads = threads;
  core::CheckpointStore store(*p.ns, file, cfg.payload_bytes,
                              p.allow_volatile, {}, options);
  std::vector<std::byte> payload(cfg.payload_bytes, std::byte{0x42});
  // Prime both slots so incremental timing measures steady state, not the
  // first-epoch full rewrite.
  (void)store.save(payload, core::SaveMode::Full);
  std::vector<std::uint64_t> prev = mutate(payload, cfg.dirty_pct, 1);
  (void)store.save(payload, core::SaveMode::Full);

  Measure best;
  best.ms = 1e300;
  for (int it = 0; it < iters; ++it) {
    std::vector<std::uint64_t> cur =
        mutate(payload, cfg.dirty_pct, static_cast<std::uint64_t>(it) + 2);
    const double t0 = now_ms();
    const core::SaveStats st = store.save(payload, mode);
    const double t1 = now_ms();
    if (t1 - t0 < best.ms) {
      best.ms = t1 - t0;
      best.chunks_written = st.chunks_written;
      best.bytes_written = st.bytes_written;
      // Saves alternate slots, so the target was last sealed two saves
      // ago: the two latest mutations are what it has to catch up on.
      best.bytes_dirtied = union_bytes(prev, cur);
      best.threads_used = st.threads_used;
    }
    prev = std::move(cur);
  }
  // Correctness insurance: the store must hold exactly what we last saved.
  if (store.load() != payload) {
    std::fprintf(stderr, "FAIL: %s reload mismatch on %s\n", file.c_str(),
                 p.label.c_str());
    std::exit(1);
  }
  p.ns->remove_pool(file);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--quick") {
      cfg.smoke = true;
    } else if (arg == "--payload-mib" && i + 1 < argc) {
      cfg.payload_bytes = std::strtoull(argv[++i], nullptr, 10) << 20;
    } else if (arg == "--dirty-pct" && i + 1 < argc) {
      cfg.dirty_pct = std::atof(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      cfg.json = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--payload-mib N] [--dirty-pct P] "
                   "[--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  const int iters = cfg.smoke ? 3 : 7;
  const unsigned hw = std::thread::hardware_concurrency();
  const int mt = static_cast<int>(std::min<unsigned>(4, std::max(1u, hw)));

  const fs::path dir =
      fs::temp_directory_path() /
      ("micro-checkpoint-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  // The three media the paper compares: socket DRAM exposed as emulated
  // PMem, the battery-backed CXL FPGA, and an Optane-class DCPMM DIMM.
  auto setup1 = profiles::make_setup_one();
  auto legacy = profiles::make_legacy_setup();
  std::vector<Profile> media;
  media.push_back({"dram",
                   std::make_unique<core::DaxNamespace>(
                       "pmem0", dir / "pmem0", setup1.machine,
                       setup1.ddr5_socket0, true),
                   true});
  media.push_back({"cxl",
                   std::make_unique<core::DaxNamespace>(
                       "pmem2", dir / "pmem2", setup1.machine, setup1.cxl,
                       false),
                   false});
  media.push_back({"pmem",
                   std::make_unique<core::DaxNamespace>(
                       "dcpmm", dir / "dcpmm", legacy.machine, legacy.dcpmm,
                       false),
                   false});

  std::printf("# micro_checkpoint: %llu MiB payload, %.1f%% dirty, "
              "mt=%d threads (hw=%u)\n",
              static_cast<unsigned long long>(cfg.payload_bytes >> 20),
              cfg.dirty_pct, mt, hw);
  std::printf("%-8s %-12s %-12s %-12s %-12s %-10s %-10s\n", "media",
              "full1t_ms", "inc1t_ms", "incMT_ms", "fullMT_ms", "speedup",
              "write_amp");

  double smoke_inc_speedup = 0, smoke_full_scaling = 0, smoke_write_amp = 0;
  std::string json = "{\n";
  json += "  \"payload_bytes\": " + std::to_string(cfg.payload_bytes) +
          ",\n  \"dirty_pct\": " + std::to_string(cfg.dirty_pct) +
          ",\n  \"hw_threads\": " + std::to_string(hw) +
          ",\n  \"mt_threads\": " + std::to_string(mt) +
          ",\n  \"profiles\": [\n";

  for (std::size_t m = 0; m < media.size(); ++m) {
    Profile& p = media[m];
    const Measure full1 =
        run_saves(p, cfg, "full1.pool", 1, core::SaveMode::Full, iters);
    const Measure inc1 =
        run_saves(p, cfg, "inc1.pool", 1, core::SaveMode::Incremental, iters);
    const Measure incN = run_saves(p, cfg, "incN.pool", mt,
                                   core::SaveMode::Incremental, iters);
    const Measure fullN =
        run_saves(p, cfg, "fullN.pool", mt, core::SaveMode::Full, iters);

    const double speedup = full1.ms / incN.ms;
    const double scaling = full1.ms / fullN.ms;
    const double write_amp = static_cast<double>(incN.bytes_written) /
                             static_cast<double>(incN.bytes_dirtied);
    std::printf("%-8s %-12.3f %-12.3f %-12.3f %-12.3f %-10.2f %-10.2f\n",
                p.label.c_str(), full1.ms, inc1.ms, incN.ms, fullN.ms,
                speedup, write_amp);

    smoke_inc_speedup = std::max(smoke_inc_speedup, speedup);
    smoke_full_scaling = std::max(smoke_full_scaling, scaling);
    smoke_write_amp = std::max(smoke_write_amp, write_amp);

    json += "    {\"media\": \"" + p.label + "\", \"domain\": \"" +
            core::to_string(p.ns->domain()) + "\"";
    json += ", \"full_1t_ms\": " + std::to_string(full1.ms);
    json += ", \"inc_1t_ms\": " + std::to_string(inc1.ms);
    json += ", \"inc_mt_ms\": " + std::to_string(incN.ms);
    json += ", \"full_mt_ms\": " + std::to_string(fullN.ms);
    json += ", \"inc_chunks_written\": " + std::to_string(incN.chunks_written);
    json += ", \"inc_bytes_written\": " + std::to_string(incN.bytes_written);
    json += ", \"inc_write_amp\": " + std::to_string(write_amp);
    json += ", \"inc_speedup\": " + std::to_string(speedup);
    json += ", \"full_mt_scaling\": " + std::to_string(scaling);
    json += std::string("}") + (m + 1 < media.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";

  if (!cxlpmem::bench::write_bench_json(cfg.json, json)) return 1;
  fs::remove_all(dir);

  if (cfg.smoke) {
    // Mirrors micro_mt_alloc: honest floors on real cores, no-collapse on
    // starved single-core runners.
    const double inc_floor = hw >= 4 ? 5.0 : 1.5;
    const double scale_floor = hw >= 4 ? 1.15 : 0.50;
    if (smoke_write_amp > 2.0) {
      std::fprintf(stderr,
                   "FAIL: incremental write amplification %.2fx > 2x "
                   "(bytes written / bytes dirtied since the slot's seal)\n",
                   smoke_write_amp);
      return 1;
    }
    if (smoke_inc_speedup < inc_floor) {
      std::fprintf(stderr,
                   "FAIL: incremental speedup %.2fx < %.2fx floor (hw=%u)\n",
                   smoke_inc_speedup, inc_floor, hw);
      return 1;
    }
    if (smoke_full_scaling < scale_floor) {
      std::fprintf(stderr,
                   "FAIL: %d-thread full-save scaling %.2fx < %.2fx floor "
                   "(hw=%u)\n",
                   mt, smoke_full_scaling, scale_floor, hw);
      return 1;
    }
    std::printf("smoke OK: incremental %.2fx (write amp %.2fx), full %dT "
                "scaling %.2fx\n",
                smoke_inc_speedup, smoke_write_amp, mt, smoke_full_scaling);
  }
  return 0;
}

// bench/micro_checkpoint.cpp — checkpoint engine: full vs incremental vs
// parallel saves, across the paper's media profiles.
//
// The §1.2 scenario: a solver checkpoints a large state every epoch, but
// only a small fraction of it changed.  The old engine memcpy'd the whole
// payload single-threaded every time; the chunked engine rewrites only
// dirty chunks (4 KiB pages by default), fans the work out over a thread
// pool, and — where the kernel's userfaultfd write-protect tracking works
// — fingerprints only the chunks overlapping pages written since the
// target slot's seal.  This bench measures full/1T (the old behaviour),
// incremental (1T and MT), parallel full, and the MT incremental save with
// tracking switched off through the tracker's test seam (`incMTscan`), on
// DRAM-emulated PMem, the CXL expander namespace, and an Optane-class
// DCPMM namespace, and emits BENCH_checkpoint.json.  Each save first
// dirties --dirty-pct % of the payload's 4 KiB pages, whatever the store's
// chunk size.  `inc_write_amp` is the bytes a parallel incremental save
// wrote over the bytes dirtied since its target slot's last seal (the two
// mutations since then; 1.0 = only dirty pages moved).
//
// The mutation step is timed too (`mutate_ms`, the mean over the saves
// after the first): a tracked payload pays its cost there, as one write
// fault on the first store to each protected page.  `fault_us_per_page` is
// the tracked run's mutate time minus the full/1T run's (never armed),
// per page dirtied.
//
//   micro_checkpoint [--smoke] [--payload-mib N] [--dirty-pct P]
//                    [--json PATH]
//
// N may be fractional (0.375 = 384 KiB): small spans are where the
// tracker's fixed costs meet the full scan (DirtyTracker::kMinSpanBytes).
//
// --smoke (used from ctest) fails the process when the engine loses its
// reason to exist: an incremental save must write at most twice the bytes
// dirtied since its target's last seal, and a tracked one must fingerprint
// at most twice the chunks its two mutations' pages overlap plus the
// chunks of the payload's partial edge pages (counts, independent of
// timing); on >= 4-core hosts an incremental ~1%-dirty save of the 64 MiB
// payload must be >= 5x faster than a full single-threaded save, and a
// 4-thread full save must beat 1-thread by > 1.15x (mirroring
// micro_mt_alloc's scaling floor; single-core hosts only get the
// no-collapse check).  It prints why when tracking is unavailable.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/core.hpp"
#include "simkit/profiles.hpp"

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

/// The pages in `a` or `b`, ascending.
std::vector<std::uint64_t> union_pages(std::vector<std::uint64_t> a,
                                       const std::vector<std::uint64_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

/// Distinct chunks of `chunk` bytes the ascending `pages` fall in.
std::uint64_t chunks_over(const std::vector<std::uint64_t>& pages,
                          std::uint64_t chunk) {
  std::uint64_t n = 0, last = ~0ull;
  for (const std::uint64_t pg : pages)
    if (pg * kPage / chunk != last) {
      last = pg * kPage / chunk;
      ++n;
    }
  return n;
}

/// Chunks (of `chunk` bytes) of a `size`-byte payload at `data` that
/// touch its partial edge pages — the pages the dirty-page tracker never
/// arms, so a tracked save always fingerprints their chunks.
std::uint64_t edge_chunks(const std::byte* data, std::uint64_t size,
                          std::uint64_t chunk) {
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uint64_t head = (kPage - addr % kPage) % kPage;
  const std::uint64_t tail = (addr + size) % kPage;
  std::uint64_t n = 0;
  if (head > 0) n += (std::min(head, size) - 1) / chunk + 1;
  if (tail > 0 && size > head)
    n += (size - 1) / chunk - (size - tail) / chunk + 1;
  return n;
}

struct Measure {
  double ms = 0;            ///< best save latency
  double mutate_ms = 0;     ///< mean mutation time, saves after the first
  std::uint64_t chunks_scanned = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_dirtied = 0;  ///< since the target's last seal
  std::uint64_t pages_per_mutation = 0;
  int threads_used = 1;
  bool tracked = false;
  /// Largest excess of a tracked save's fingerprinted chunks over twice
  /// the chunks its two mutations' pages overlap plus the edge chunks.
  std::int64_t scan_excess = std::numeric_limits<std::int64_t>::min();
};

/// Times `iters` saves (best-of) on a fresh store configured with
/// `threads`, mutating dirty_pct% before each one.  `track` false runs
/// every save with tracking off (the tracker's test seam).
Measure run_saves(Profile& p, const Config& cfg, const std::string& file,
                  int threads, core::SaveMode mode, int iters,
                  bool track = true) {
  std::optional<core::DirtyTrackingForTest> off;
  if (!track) off.emplace(core::DirtyTrackingForTest::Mode::Off);
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
  const std::uint64_t edges =
      edge_chunks(payload.data(), payload.size(), store.chunk_size());
  double mutate_total = 0;
  for (int it = 0; it < iters; ++it) {
    const double m0 = now_ms();
    std::vector<std::uint64_t> cur =
        mutate(payload, cfg.dirty_pct, static_cast<std::uint64_t>(it) + 2);
    if (it > 0) mutate_total += now_ms() - m0;
    best.pages_per_mutation = cur.size();
    const double t0 = now_ms();
    const core::SaveStats st = store.save(payload, mode);
    const double t1 = now_ms();
    // Saves alternate slots, so the target was last sealed two saves
    // ago: the two latest mutations are what it has to catch up on.
    const std::vector<std::uint64_t> pages = union_pages(prev, cur);
    const std::uint64_t dirtied = pages.size() * kPage;
    if (st.tracked)
      best.scan_excess = std::max(
          best.scan_excess,
          static_cast<std::int64_t>(st.chunks_scanned) -
              static_cast<std::int64_t>(
                  2 * chunks_over(pages, store.chunk_size()) + edges));
    if (t1 - t0 < best.ms) {
      best.ms = t1 - t0;
      best.chunks_scanned = st.chunks_scanned;
      best.chunks_written = st.chunks_written;
      best.bytes_written = st.bytes_written;
      best.bytes_dirtied = dirtied;
      best.threads_used = st.threads_used;
      best.tracked = st.tracked;
    }
    prev = std::move(cur);
  }
  if (iters > 1) best.mutate_ms = mutate_total / (iters - 1);
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
      // Fractions give byte-granular spans (0.0625 = 64 KiB).
      cfg.payload_bytes = static_cast<std::uint64_t>(
          std::atof(argv[++i]) * static_cast<double>(1 << 20));
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

  const std::string untracked_reason =
      core::DirtyTracker::process().unavailable_reason();
  std::printf("# micro_checkpoint: %.4g MiB payload, %.1f%% dirty, "
              "mt=%d threads (hw=%u)\n",
              static_cast<double>(cfg.payload_bytes) / (1 << 20),
              cfg.dirty_pct, mt, hw);
  if (!untracked_reason.empty())
    std::printf("# dirty-page tracking unavailable (%s): every save scans "
                "the whole payload\n",
                untracked_reason.c_str());
  std::printf("%-8s %-11s %-11s %-11s %-11s %-11s %-9s %-9s %-10s %-10s\n",
              "media", "full1t_ms", "inc1t_ms", "incMT_ms", "incMTscan",
              "fullMT_ms", "speedup", "write_amp", "mutate_ms", "fault_us");

  double smoke_inc_speedup = 0, smoke_full_scaling = 0, smoke_write_amp = 0;
  std::int64_t smoke_scan_excess = std::numeric_limits<std::int64_t>::min();
  std::string json = "{\n";
  json += "  \"payload_bytes\": " + std::to_string(cfg.payload_bytes) +
          ",\n  \"dirty_pct\": " + std::to_string(cfg.dirty_pct) +
          ",\n  \"hw_threads\": " + std::to_string(hw) +
          ",\n  \"mt_threads\": " + std::to_string(mt) +
          ",\n  \"tracking\": " +
          (untracked_reason.empty() ? std::string("true") : "false") +
          ",\n  \"profiles\": [\n";

  for (std::size_t m = 0; m < media.size(); ++m) {
    Profile& p = media[m];
    const Measure full1 =
        run_saves(p, cfg, "full1.pool", 1, core::SaveMode::Full, iters);
    const Measure inc1 =
        run_saves(p, cfg, "inc1.pool", 1, core::SaveMode::Incremental, iters);
    const Measure incN = run_saves(p, cfg, "incN.pool", mt,
                                   core::SaveMode::Incremental, iters);
    const Measure scanN =
        run_saves(p, cfg, "scanN.pool", mt, core::SaveMode::Incremental,
                  iters, /*track=*/false);
    const Measure fullN =
        run_saves(p, cfg, "fullN.pool", mt, core::SaveMode::Full, iters);

    const double speedup = full1.ms / incN.ms;
    const double scaling = full1.ms / fullN.ms;
    const double write_amp = static_cast<double>(incN.bytes_written) /
                             static_cast<double>(incN.bytes_dirtied);
    const double fault_us =
        std::max(0.0, incN.mutate_ms - full1.mutate_ms) * 1000.0 /
        static_cast<double>(std::max<std::uint64_t>(1, incN.pages_per_mutation));
    std::printf(
        "%-8s %-11.3f %-11.3f %-11.3f %-11.3f %-11.3f %-9.2f %-9.2f %-10.3f "
        "%-10.3f\n",
        p.label.c_str(), full1.ms, inc1.ms, incN.ms, scanN.ms, fullN.ms,
        speedup, write_amp, incN.mutate_ms, fault_us);

    smoke_inc_speedup = std::max(smoke_inc_speedup, speedup);
    smoke_full_scaling = std::max(smoke_full_scaling, scaling);
    smoke_write_amp = std::max(smoke_write_amp, write_amp);
    for (const Measure* mm : {&inc1, &incN})
      smoke_scan_excess = std::max(smoke_scan_excess, mm->scan_excess);

    json += "    {\"media\": \"" + p.label + "\", \"domain\": \"" +
            core::to_string(p.ns->domain()) + "\"";
    json += ", \"full_1t_ms\": " + std::to_string(full1.ms);
    json += ", \"inc_1t_ms\": " + std::to_string(inc1.ms);
    json += ", \"inc_mt_ms\": " + std::to_string(incN.ms);
    json += ", \"inc_mt_scan_ms\": " + std::to_string(scanN.ms);
    json += ", \"full_mt_ms\": " + std::to_string(fullN.ms);
    json += ", \"inc_chunks_scanned\": " + std::to_string(incN.chunks_scanned);
    json += ", \"inc_chunks_written\": " + std::to_string(incN.chunks_written);
    json += ", \"inc_bytes_written\": " + std::to_string(incN.bytes_written);
    json += ", \"inc_write_amp\": " + std::to_string(write_amp);
    json += ", \"inc_speedup\": " + std::to_string(speedup);
    json += ", \"full_mt_scaling\": " + std::to_string(scaling);
    json += std::string(", \"tracked\": ") + (incN.tracked ? "true" : "false");
    json += ", \"mutate_ms\": " + std::to_string(incN.mutate_ms);
    json += ", \"scan_mutate_ms\": " + std::to_string(scanN.mutate_ms);
    json += ", \"fault_us_per_page\": " + std::to_string(fault_us);
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
    if (!untracked_reason.empty()) {
      std::printf("smoke: tracked-scan bound not checked: dirty-page "
                  "tracking unavailable (%s)\n",
                  untracked_reason.c_str());
    } else if (smoke_scan_excess ==
                   std::numeric_limits<std::int64_t>::min() &&
               cfg.dirty_pct *
                       static_cast<double>(core::DirtyTracker::kDenseDivisor) <
                   100.0) {
      // Denser mutations disarm the range on purpose.
      std::fprintf(stderr,
                   "FAIL: tracking is available but no incremental save "
                   "was tracked\n");
      return 1;
    } else if (smoke_scan_excess > 0) {
      std::fprintf(stderr,
                   "FAIL: a tracked save fingerprinted %lld chunks more than "
                   "2x the chunks its two mutations' pages overlap plus the "
                   "edge chunks\n",
                   static_cast<long long>(smoke_scan_excess));
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

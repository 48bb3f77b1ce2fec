// ckpt.cpp — ckpt_restart: a solver-style checkpoint loop on
// api::CheckpointStore.
//
// The payload is 4x the host's last-level cache (so saves stream from
// memory, not cache), split over ranks the way an MPI job splits its
// state: each rank checkpoints its own slice to its own store and pool
// file, and a rank's slice is at most kRankCap (less when the process's
// file-size limit needs it), so no pool file outgrows what the host lets
// one file hold.  Each epoch dirties a seeded ~1% of the payload's 4 KiB
// pages — half in contiguous runs, half scattered — then calls an
// incremental save() on every rank with the facade's default save
// threads.  Every cycle of kRestartEvery epochs starts with a restart:
// every rank's handle is dropped the way a crashed node drops it (no
// clean-shutdown sync), a fresh handle is opened on the same pool, and
// load_into() restores into a rank-sized buffer that is byte-compared with
// the rank's slice of the in-memory payload.  Set-up fills both
// double-buffer slots of every rank, so every timed save is incremental.
#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>

#include "api/cxlpmem.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cxlpmem;

namespace {

constexpr std::uint64_t kPage = 4096;
constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kRestartEvery = 2;
// The largest slice one rank checkpoints: its double-buffered pool holds
// ~2.5x the slice, so pool files stay under 256 MiB.
constexpr std::uint64_t kRankCap = 96 * kMiB;
// The save tail: a 15 s run of a 1.2 GiB payload holds ~30 saves, so only
// ~6 lie beyond it (printed as beyond=); ~15 restores support only their
// median.
constexpr double kSaveTailQ = 0.80;
// Epochs whose saving-thread fences make core.fences_per_save.
constexpr std::uint64_t kFencePassEpochs = 4;

enum : std::uint32_t { kSpanSave, kSpanRestore, kSpanOpen, kSpanLoad };
const std::vector<std::string> kSpanNames = {"core.save", "ckpt.restore",
                                             "core.open", "core.load_into"};

/// How the payload splits into ranks: `ranks` equal slices of `slice`
/// bytes (a whole number of MiB), together at least 4x the LLC.
struct Layout {
  std::uint64_t ranks = 1;
  std::uint64_t slice = 0;
  [[nodiscard]] std::uint64_t bytes() const { return ranks * slice; }
};

Layout layout() {
  const std::uint64_t want =
      std::max<std::uint64_t>(4 * llc_bytes(), 256 * kMiB);
  // A rank's pool is ~2.5x its slice plus a few MiB of heap overhead.
  const std::uint64_t cap = std::max<std::uint64_t>(
      std::min(kRankCap, file_size_limit() / 3) / kMiB * kMiB, kMiB);
  Layout l;
  l.ranks = (want + cap - 1) / cap;
  l.slice = (want / l.ranks + kMiB - 1) / kMiB * kMiB;
  return l;
}

void fill_page(std::byte* page, Rng& rng) {
  for (std::uint64_t off = 0; off < kPage; off += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(page + off, &w, 8);
  }
}

/// Dirties ~1% of the payload's pages for `epoch`; returns pages dirtied.
std::uint64_t dirty_epoch(std::vector<std::byte>& payload, std::uint64_t seed,
                          std::uint64_t epoch, std::vector<std::uint8_t>& seen) {
  Rng rng(seed, 0x636b'7074'0000ull + epoch);
  const std::uint64_t pages = payload.size() / kPage;
  const std::uint64_t target = std::max<std::uint64_t>(pages / 100, 2);
  std::fill(seen.begin(), seen.end(), 0);
  std::uint64_t dirtied = 0;
  auto touch = [&](std::uint64_t p) {
    fill_page(payload.data() + p * kPage, rng);
    if (!seen[p]) {
      seen[p] = 1;
      ++dirtied;
    }
  };
  // Half in contiguous runs of 8..64 pages…
  std::uint64_t runs = 0;
  while (runs < target / 2) {
    const std::uint64_t len = rng.range(8, 64);
    const std::uint64_t start = rng.below(pages - len);
    for (std::uint64_t p = start; p < start + len; ++p) touch(p);
    runs += len;
  }
  // …and half scattered.
  for (std::uint64_t i = 0; i < target / 2; ++i) touch(rng.below(pages));
  return dirtied;
}

api::CheckpointStore open_store(api::Runtime& rt, std::uint64_t rank,
                                std::uint64_t bytes) {
  api::Result<api::CheckpointStore> s = rt.checkpoint_store(
      "pmem2", "ckpt.rank" + std::to_string(rank) + ".pool", bytes,
      api::CheckpointSpec{});
  if (!s.ok())
    throw std::runtime_error("store of rank " + std::to_string(rank) + ": " +
                             s.error().to_string());
  return std::move(s).value();
}

/// One store per rank; rank r checkpoints payload[r*slice, (r+1)*slice).
using Stores = std::vector<std::optional<api::CheckpointStore>>;

/// Drops every handle the way a crashed writer does: no clean-shutdown
/// flag, no msync — the next open runs recovery.
void crash_drop(Stores& stores) {
  for (std::optional<api::CheckpointStore>& store : stores) {
    if (store) store->core().pool().mark_crashed();
    store.reset();
  }
}

/// What one epoch's save (every rank) cost.
struct SaveCpu {
  std::uint64_t epoch;
  double steal;  ///< host steal during the save
  double cpu_us;
};

/// CPU µs per save, taken where the host was quietest: the saves of one
/// restart cycle (kRestartEvery epochs) are averaged, since the first save
/// after a reopen and the one after it cost differently, and the cycles
/// are ranked by their mean host steal (quiet_median).  A cycle's saves
/// span ~0.5 s, ~200 jiffies of 4 vCPUs: fine enough to rank by steal.
double quiet_cycle_cpu_us(const std::vector<SaveCpu>& saves) {
  std::map<std::uint64_t, std::vector<const SaveCpu*>> cycles;
  for (const SaveCpu& s : saves)
    cycles[(s.epoch - 1) / kRestartEvery].push_back(&s);
  std::vector<std::pair<double, double>> per;
  for (const auto& [cycle, in] : cycles) {
    if (in.size() != kRestartEvery) continue;
    double steal = 0, cpu = 0;
    for (const SaveCpu* s : in) {
      steal += s->steal;
      cpu += s->cpu_us;
    }
    per.emplace_back(steal / kRestartEvery, cpu / kRestartEvery);
  }
  return quiet_median(std::move(per));
}

/// Heap stats summed over the ranks' pools (fragmentation = 1 - live /
/// reserved of the sums).
pmemkit::HeapStats heap_of(Stores& stores) {
  pmemkit::HeapStats sum{};
  for (std::optional<api::CheckpointStore>& store : stores) {
    const pmemkit::HeapStats h = store->core().pool().stats().heap;
    sum.reserved_bytes += h.reserved_bytes;
    sum.live_bytes += h.live_bytes;
  }
  sum.fragmentation =
      sum.reserved_bytes ? 1.0 - static_cast<double>(sum.live_bytes) /
                                     static_cast<double>(sum.reserved_bytes)
                         : 0.0;
  return sum;
}

struct Loop {
  std::vector<double> save_us, restore_us, open_ms, load_ms;
  std::vector<SaveCpu> save_cpu;  ///< one per epoch
  std::uint64_t chunks_total = 0, chunks_written = 0, bytes_written = 0,
                bytes_dirtied = 0;
  int threads = 0;
  std::uint64_t fence_pass_fences = 0, fence_pass_saves = 0;
  double elapsed = 0, steal_frac = 0;
};

}  // namespace

Outcome run_ckpt(const Options& opt) {
  const fs::path dir = opt.work / "ckpt_restart";
  const Layout lay = layout();
  const std::uint64_t bytes = lay.bytes();
  Outcome out;
  Report& report = out.report;
  report.note("llc_bytes", std::to_string(llc_bytes()));
  report.note("payload_bytes", std::to_string(bytes));
  report.note("ranks", std::to_string(lay.ranks) + " x " +
                           std::to_string(lay.slice) + " bytes");

  std::vector<std::byte> payload(bytes), restore(lay.slice);
  std::vector<std::uint8_t> seen(bytes / kPage);
  auto slice_of = [&](std::uint64_t r) {
    return std::span<const std::byte>(payload).subspan(r * lay.slice,
                                                       lay.slice);
  };

  std::optional<api::Runtime> rt;
  Stores stores(lay.ranks);
  SetupClock setup;
  for (int r = 0; r < kSetups; ++r) {
    crash_drop(stores);
    rt.reset();
    fs::remove_all(dir);
    setup.start();
    {
      Rng rng(opt.seed, 0x636b'7074ull);
      for (std::uint64_t p = 0; p < bytes / kPage; ++p)
        fill_page(payload.data() + p * kPage, rng);
    }
    rt.emplace(make_runtime(dir));
    for (std::uint64_t k = 0; k < lay.ranks; ++k) {
      stores[k].emplace(open_store(*rt, k, lay.slice));
      for (int slot = 0; slot < 2; ++slot) {
        const api::Result<api::SaveStats> s = stores[k]->save(slice_of(k));
        ++report.attempted;
        if (!s.ok()) report.fail(1, "set-up save: " + s.error().to_string());
      }
    }
    setup.stop();
  }
  setup.note(report);

  std::uint64_t epoch = 0;
  // One epoch's save is a save() on every rank; a restore reopens and
  // reloads every rank.
  auto loop = [&](Tracer* tr) {
    Loop l;
    const StealMeter steal;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(opt.seconds * 1e9);
    while (now_ns() < deadline && report.correct) {
      // Every cycle starts with a restart, so every timed save runs on
      // a handle the same number of saves after a reopen.
      if (epoch % kRestartEvery == 0) {
        crash_drop(stores);
        std::uint64_t open_ns = 0, load_ns = 0;
        std::int32_t root = -1;
        const std::uint64_t r0 = now_ns();
        if (tr) root = tr->begin(kSpanRestore, -1, epoch);
        for (std::uint64_t k = 0; k < lay.ranks; ++k) {
          const std::uint64_t a = now_ns();
          stores[k].emplace(open_store(*rt, k, lay.slice));
          const std::uint64_t b = now_ns();
          const api::Result<std::uint64_t> n = stores[k]->load_into(restore);
          const std::uint64_t c = now_ns();
          ++report.attempted;
          if (!n.ok() || n.value() != lay.slice ||
              std::memcmp(restore.data(), slice_of(k).data(), lay.slice) != 0) {
            report.fail(1, "restore of rank " + std::to_string(k) +
                               " at epoch " + std::to_string(epoch) +
                               " differs from the saved payload");
            break;
          }
          if (tr) {
            tr->add(kSpanOpen, a, b, root, epoch);
            tr->add(kSpanLoad, b, c, root, epoch);
          }
          open_ns += b - a;
          load_ns += c - b;
        }
        if (tr) tr->end(root);
        if (!report.correct) break;
        l.restore_us.push_back(static_cast<double>(now_ns() - r0) / 1000.0);
        l.open_ms.push_back(static_cast<double>(open_ns) / 1e6);
        l.load_ms.push_back(static_cast<double>(load_ns) / 1e6);
      }

      ++epoch;
      l.bytes_dirtied += dirty_epoch(payload, opt.seed, epoch, seen) * kPage;
      const std::uint64_t f0 = pmemkit::PersistentRegion::thread_drain_count();
      const StealMeter save_steal;
      const double c0 = process_cpu_s();
      const std::uint64_t s0 = now_ns();
      for (std::uint64_t k = 0; k < lay.ranks; ++k) {
        const api::Result<api::SaveStats> s = stores[k]->save(slice_of(k));
        ++report.attempted;
        if (!s.ok()) {
          report.fail(1, "save: " + s.error().to_string());
          break;
        }
        l.chunks_total += s.value().chunks_total;
        l.chunks_written += s.value().chunks_written;
        l.bytes_written += s.value().bytes_written;
        l.threads = s.value().threads_used;
      }
      const std::uint64_t s1 = now_ns();
      l.save_cpu.push_back({epoch, save_steal.steal_frac(),
                            (process_cpu_s() - c0) * 1e6});
      if (!report.correct) break;
      if (epoch <= kFencePassEpochs) {
        l.fence_pass_fences +=
            pmemkit::PersistentRegion::thread_drain_count() - f0;
        l.fence_pass_saves += lay.ranks;
      }
      if (tr) tr->add(kSpanSave, s0, s1, -1, epoch);
      l.save_us.push_back(static_cast<double>(s1 - s0) / 1000.0);
    }
    l.elapsed = static_cast<double>(now_ns() - t0) / 1e9;
    l.steal_frac = steal.steal_frac();
    return l;
  };
  auto phase_of = [](Loop& l) {
    Phase p;
    if (l.save_us.empty()) return p;
    p.ops_s = static_cast<double>(l.save_us.size()) / l.elapsed;
    p.write_p50 = percentile(l.save_us, 0.5);
    p.write_tail = percentile(l.save_us, kSaveTailQ);
    p.read_p50 = percentile(l.restore_us, 0.5);
    p.cpu_us_per_op = quiet_cycle_cpu_us(l.save_cpu);
    p.steal_frac = l.steal_frac;
    return p;
  };

  Loop plain = loop(nullptr);
  const Phase pp = phase_of(plain);
  note_phase(report, pp, {"saves_s", "save_p50_ms", "save_p80_ms",
                          "restore_ms", nullptr, 1e-3, "ms"});

  if (report.correct)
    put_e2e(out, pp, report,
            static_cast<double>(heap_of(stores).reserved_bytes) /
                static_cast<double>(bytes),
            setup);

  if (opt.trace && report.correct) {
    Tracer tr;
    Loop traced = loop(&tr);
    const Phase tp = phase_of(traced);
    put_overhead(out, pp, tp);
    auto& L = out.layer;
    L["core.chunks_written_frac"] =
        traced.chunks_total ? static_cast<double>(traced.chunks_written) /
                                  static_cast<double>(traced.chunks_total)
                            : 0.0;
    L["core.write_amp"] = traced.bytes_dirtied
                              ? static_cast<double>(traced.bytes_written) /
                                    static_cast<double>(traced.bytes_dirtied)
                              : 0.0;
    L["core.save_threads"] = traced.threads;
    // Fences the saving thread issues per rank save() (slot invalidation +
    // seal); the copy workers' fences are on their own threads.
    L["core.fences_per_save"] =
        plain.fence_pass_saves
            ? static_cast<double>(plain.fence_pass_fences) /
                  static_cast<double>(plain.fence_pass_saves)
            : 0.0;
    L["core.open_ms"] = percentile(traced.open_ms, 0.5).value;
    L["core.load_ms"] = percentile(traced.load_ms, 0.5).value;
    const pmemkit::HeapStats ts = heap_of(stores);
    L["pmemkit.reserved_bytes"] = static_cast<double>(ts.reserved_bytes);
    L["pmemkit.live_bytes"] = static_cast<double>(ts.live_bytes);
    L["pmemkit.fragmentation"] = ts.fragmentation;
    write_spans(opt.trace_dir / ("ckpt_restart-seed" +
                                 std::to_string(opt.seed) + ".spans.jsonl"),
                tr.spans(), kSpanNames, report);
  }
  // The pools are deleted right away; a clean close would only msync them.
  crash_drop(stores);
  rt.reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench

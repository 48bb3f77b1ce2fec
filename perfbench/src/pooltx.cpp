// pooltx.cpp — pool_tx_mt: kThreads threads share ONE api::Pool.
//
// Each thread owns a slot array in the pool root and loops: one small
// transaction (snapshot a slot, tx_free the old object, tx_alloc a seeded
// 64 B–2 KiB object, stamp it) and one verified read of another own slot.
// It is the only workload where pmemkit's lanes and heap are contended:
// every kv shard pool has one writer and checkpoint seals run on one
// thread.  At the end the pool is dropped as after a crash, reopened with
// recovery, and every slot's stamp is checked against the ledger.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/cxlpmem.hpp"
#include "pmemkit/checksum.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cxlpmem;

namespace {

constexpr int kThreads = 4;
constexpr std::uint32_t kSlots = 2048;  // per thread
constexpr std::uint32_t kMinObj = 64, kMaxObj = 2048;
constexpr std::uint32_t kObjType = 0x7478;  // 'tx'
constexpr std::uint32_t kRootType = 0x7472;
constexpr double kTailQ = 0.99;
constexpr std::size_t kFencePassTx = 8192;

enum : std::uint32_t { kSpanTx, kSpanAddRange, kSpanFree, kSpanAlloc,
                       kSpanStamp, kSpanCommit, kSpanRead };
const std::vector<std::string> kSpanNames = {
    "pmemkit.tx", "pmemkit.tx_add_range", "pmemkit.tx_free",
    "pmemkit.tx_alloc", "bench.stamp", "pmemkit.tx_commit", "bench.read"};

struct TxRoot {
  pmemkit::ObjId slots[kThreads * kSlots];
};

/// The stamp heading every object; the body after it is cut from the
/// value pool.
struct Stamp {
  std::uint32_t thread;
  std::uint32_t slot;
  std::uint64_t version;
  std::uint32_t size;
  std::uint32_t pad;
  std::uint64_t checksum;  ///< fingerprint of the body
};

/// One thread's seeded inputs and the ledger of its slots.
struct Worker {
  Worker(std::uint64_t seed, int t)
      : rng(seed, 0x7478'0000ull + static_cast<std::uint64_t>(t)),
        version(kSlots, 0),
        size(kSlots, 0),
        tracer(1u << 19) {
    for (std::uint32_t& s : size) s = draw_size();
  }
  std::uint32_t draw_size() {
    return static_cast<std::uint32_t>(
        kMinObj * std::exp2(rng.unit() * std::log2(double(kMaxObj) / kMinObj)));
  }
  Rng rng;
  std::vector<std::uint64_t> version;
  std::vector<std::uint32_t> size;
  Windows tx_us, read_us;
  std::uint64_t t0 = 0, t1 = 1;  ///< timed phase, for window indices
  std::uint64_t bad = 0, reads = 0, done = 0;
  Tracer tracer;
};

std::uint64_t body_hash(std::uint32_t t, std::uint32_t slot,
                        std::uint64_t version) {
  return (static_cast<std::uint64_t>(t) << 56) ^
         (static_cast<std::uint64_t>(slot) << 32) ^ (version * 0x9E3779B97F4A7C15ull);
}

void stamp(void* obj, const ValuePool& pool, std::uint32_t t,
           std::uint32_t slot, std::uint64_t version, std::uint32_t size) {
  const std::string_view body =
      pool.slice(body_hash(t, slot, version), size - sizeof(Stamp));
  Stamp st{t, slot, version, size, 0,
           pmemkit::fingerprint64(body.data(), body.size())};
  std::memcpy(obj, &st, sizeof(st));
  std::memcpy(static_cast<char*>(obj) + sizeof(Stamp), body.data(),
              body.size());
}

bool verify(const void* obj, const ValuePool& pool, std::uint32_t t,
            std::uint32_t slot, std::uint64_t version, std::uint32_t size) {
  Stamp st;
  std::memcpy(&st, obj, sizeof(st));
  if (st.thread != t || st.slot != slot || st.version != version ||
      st.size != size)
    return false;
  const char* body = static_cast<const char*>(obj) + sizeof(Stamp);
  const std::string_view want =
      pool.slice(body_hash(t, slot, version), size - sizeof(Stamp));
  return st.checksum == pmemkit::fingerprint64(body, want.size()) &&
         std::memcmp(body, want.data(), want.size()) == 0;
}

TxRoot* root_of(api::Pool& pool) {
  pmemkit::ObjectPool& pm = pool.pmem();
  return static_cast<TxRoot*>(pm.direct(pm.root_raw(sizeof(TxRoot), kRootType)));
}

/// Creates `file` and fills every slot of every thread (version 0).
api::Pool create_filled(api::Runtime& rt, const std::string& file,
                        std::vector<Worker>& workers, const ValuePool& vp) {
  api::PoolSpec spec;
  spec.file = file;
  // 256 MiB, or less when the process's file-size limit is lower.
  spec.size = std::min<std::uint64_t>(256ull << 20, file_size_limit()) >> 20
              << 20;
  api::Result<api::Pool> p = rt.create_pool("pmem2", "perfbench-tx", spec);
  if (!p.ok()) throw std::runtime_error("pool: " + p.error().to_string());
  api::Pool pool = std::move(p).value();
  pmemkit::ObjectPool& pm = pool.pmem();
  TxRoot* root = root_of(pool);
  for (std::uint32_t t = 0; t < kThreads; ++t)
    for (std::uint32_t s0 = 0; s0 < kSlots; s0 += 64)
      pm.run_tx([&] {
        for (std::uint32_t s = s0; s < s0 + 64; ++s) {
          pmemkit::ObjId* slot = &root->slots[t * kSlots + s];
          pm.tx_add_range(slot, sizeof(*slot));
          const std::uint32_t size = workers[t].size[s];
          const pmemkit::ObjId o = pm.tx_alloc(size, kObjType, false);
          stamp(pm.direct(o), vp, t, s, 0, size);
          *slot = o;
        }
      });
  return pool;
}

/// One iteration of thread `t`: a transaction, then a verified read.
void step(api::Pool& pool, TxRoot* root, Worker& w, std::uint32_t t,
          const ValuePool& vp, bool record, bool trace) {
  pmemkit::ObjectPool& pm = pool.pmem();
  const std::uint32_t s = static_cast<std::uint32_t>(w.rng.below(kSlots));
  const std::uint32_t size = w.draw_size();
  const std::uint64_t version = ++w.version[s];
  w.size[s] = size;
  Tracer* tr = trace ? &w.tracer : nullptr;
  // Clock reads inside the transaction happen only when tracing, so the
  // untraced run carries none of the tracing cost.
  auto clock = [tr] { return tr ? now_ns() : 0; };
  const std::uint64_t req = (static_cast<std::uint64_t>(t) << 48) | w.done++;
  std::uint64_t body_end = 0;
  const std::uint64_t t0 = now_ns();
  const std::int32_t root_span = tr ? tr->begin(kSpanTx, -1, req) : -1;
  pm.run_tx([&] {
    pmemkit::ObjId* slot = &root->slots[t * kSlots + s];
    std::uint64_t a = clock();
    pm.tx_add_range(slot, sizeof(*slot));
    std::uint64_t b = clock();
    if (tr) tr->add(kSpanAddRange, a, b, root_span, req);
    pm.tx_free(*slot);
    a = clock();
    if (tr) tr->add(kSpanFree, b, a, root_span, req);
    const pmemkit::ObjId o = pm.tx_alloc(size, kObjType, false);
    b = clock();
    if (tr) tr->add(kSpanAlloc, a, b, root_span, req);
    stamp(pm.direct(o), vp, t, s, version, size);
    *slot = o;
    body_end = clock();
    if (tr) tr->add(kSpanStamp, b, body_end, root_span, req);
  });
  const std::uint64_t t1 = now_ns();
  if (tr) {
    tr->add(kSpanCommit, body_end, t1, root_span, req);
    tr->end(root_span);
  }
  const int win = static_cast<int>(static_cast<double>(t1 - w.t0) /
                                   static_cast<double>(w.t1 - w.t0) *
                                   w.tx_us.windows());
  if (record) w.tx_us.add(win, static_cast<double>(t1 - t0) / 1000.0);

  const std::uint32_t r = static_cast<std::uint32_t>(w.rng.below(kSlots));
  const std::uint64_t r0 = now_ns();
  const bool ok = verify(pm.direct(root->slots[t * kSlots + r]), vp, t, r,
                         w.version[r], w.size[r]);
  const std::uint64_t r1 = now_ns();
  ++w.reads;
  if (!ok) ++w.bad;
  if (tr) tr->add(kSpanRead, r0, r1, -1, req);
  if (record) w.read_us.add(win, static_cast<double>(r1 - r0) / 1000.0);
}

struct Run {
  Phase phase;
  pmemkit::PoolStats before, after;
};

/// `threads` workers loop for `seconds`.
Run timed(api::Pool& pool, std::vector<Worker>& workers, int threads,
          double seconds, const ValuePool& vp, bool trace, Report& report) {
  Run out;
  TxRoot* root = root_of(pool);
  for (Worker& w : workers) {
    w.tx_us.clear();
    w.read_us.clear();
    w.bad = 0;
    w.reads = 0;
    w.tracer.spans().clear();
  }
  const std::uint64_t span = static_cast<std::uint64_t>(seconds * 1e9);
  out.before = pool.stats();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::uint64_t t0 = 0;
  std::atomic<std::uint64_t> deadline{0};
  std::vector<std::thread> pool_threads;
  std::vector<std::string> errors(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    pool_threads.emplace_back([&, t] {
      Worker& w = workers[static_cast<std::size_t>(t)];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t end = deadline.load();
      w.t0 = end - span;
      w.t1 = end;
      try {
        while (now_ns() < end)
          step(pool, root, w, static_cast<std::uint32_t>(t), vp, true, trace);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  while (ready.load() < threads) std::this_thread::yield();
  const StealMeter steal;
  t0 = now_ns();
  CpuWindows cpu_windows(t0, span, workers[0].tx_us.windows());
  deadline.store(t0 + span);
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool_threads) th.join();
  const std::vector<WindowCpu> cpu_s = cpu_windows.finish();
  out.phase.steal_frac = steal.steal_frac();
  out.after = pool.stats();

  Windows tx(workers[0].tx_us.windows(), 0), rd(workers[0].tx_us.windows(), 0);
  for (int t = 0; t < threads; ++t) {
    Worker& w = workers[static_cast<std::size_t>(t)];
    tx.merge(w.tx_us);
    rd.merge(w.read_us);
    report.attempted += w.tx_us.count() + w.reads;
    if (w.bad) report.fail(w.bad, "slot read saw a wrong stamp");
    if (!errors[static_cast<std::size_t>(t)].empty())
      report.fail(1, "transaction failed: " + errors[static_cast<std::size_t>(t)]);
  }
  out.phase.ops_s = tx.median_rate(seconds / tx.windows());
  out.phase.cpu_us_per_op = quiet_cpu_us_per_op(cpu_s, tx);
  out.phase.write_p50 = tx.median_of(0.5);
  out.phase.write_tail = tx.median_of(kTailQ);
  out.phase.read_p50 = rd.median_of(0.5);
  out.phase.read_tail = rd.median_of(kTailQ);
  return out;
}

/// Reopens `file` (after a crash-style drop) and checks every slot.
void verify_all(api::Runtime& rt, const std::string& file,
                std::vector<Worker>& workers, const ValuePool& vp,
                Report& report) {
  api::PoolSpec spec;
  spec.file = file;
  api::Result<api::Pool> p = rt.open_pool("pmem2", "perfbench-tx", spec);
  if (!p.ok()) {
    report.fail(1, "reopen: " + p.error().to_string());
    return;
  }
  TxRoot* root = root_of(p.value());
  std::uint64_t bad = 0;
  for (std::uint32_t t = 0; t < kThreads; ++t)
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      const Worker& w = workers[t];
      ++report.attempted;
      if (!verify(p.value().pmem().direct(root->slots[t * kSlots + s]), vp, t,
                  s, w.version[s], w.size[s]))
        ++bad;
    }
  report.fail(bad, "slot stamp wrong after reopen");
  p.value().pmem().mark_crashed();
}

}  // namespace

Outcome run_pool_tx(const Options& opt) {
  const fs::path dir = opt.work / "pool_tx_mt";
  const ValuePool vp(opt.seed);
  Outcome out;
  Report& report = out.report;

  std::optional<api::Runtime> rt;
  std::optional<api::Pool> pool;
  std::vector<Worker> workers;
  SetupClock setup;
  for (int r = 0; r < kSetups; ++r) {
    if (pool) pool->pmem().mark_crashed();
    pool.reset();
    rt.reset();
    fs::remove_all(dir);
    setup.start();
    workers.clear();
    for (int t = 0; t < kThreads; ++t) workers.emplace_back(opt.seed, t);
    rt.emplace(make_runtime(dir));
    pool.emplace(create_filled(*rt, "tx.pool", workers, vp));
    setup.stop();
  }
  setup.note(report);

  const Run plain = timed(*pool, workers, kThreads, opt.seconds, vp, false, report);
  note_phase(report, plain.phase, {"tx_ops_s", "tx_p50_us", "tx_p99_us",
                                    "read_p50_us", "read_p99_us"});
  std::optional<Run> traced;
  std::vector<Span> spans;
  if (opt.trace) {
    traced = timed(*pool, workers, kThreads, opt.seconds, vp, true, report);
    for (Worker& w : workers) {
      // Concatenate per-thread spans, rebasing parent indices.
      const std::int32_t base = static_cast<std::int32_t>(spans.size());
      for (Span s : w.tracer.spans()) {
        if (s.parent >= 0) s.parent += base;
        spans.push_back(s);
      }
      w.tracer.spans() = {};
    }
  }

  const pmemkit::PoolStats st = pool->stats();
  std::uint64_t user = 0;
  for (const Worker& w : workers)
    for (const std::uint32_t s : w.size) user += s;
  pool->pmem().mark_crashed();
  pool.reset();
  verify_all(*rt, "tx.pool", workers, vp, report);

  put_e2e(out, plain.phase, report,
          static_cast<double>(st.heap.reserved_bytes) / static_cast<double>(user),
          setup);
  report.note("threads", std::to_string(kThreads));
  report.note("slots", std::to_string(kThreads * kSlots));

  if (opt.trace) {
    const Run& tr = *traced;
    put_overhead(out, plain.phase, tr.phase);
    auto& L = out.layer;
    L["pmemkit.lane_waits"] = static_cast<double>(tr.after.lane_waits -
                                                  tr.before.lane_waits);
    L["pmemkit.run_lock_skips"] = static_cast<double>(
        tr.after.heap.run_lock_skips - tr.before.heap.run_lock_skips);
    L["pmemkit.run_lock_waits"] = static_cast<double>(
        tr.after.heap.run_lock_waits - tr.before.heap.run_lock_waits);
    L["pmemkit.reserved_bytes"] = static_cast<double>(st.heap.reserved_bytes);
    L["pmemkit.live_bytes"] = static_cast<double>(st.heap.live_bytes);
    L["pmemkit.fragmentation"] = st.heap.fragmentation;
    const std::vector<double> self = self_times_ns(spans);
    L["pmemkit.tx_alloc_us"] = self_us(spans, self, kSpanAlloc).value;
    L["pmemkit.tx_free_us"] = self_us(spans, self, kSpanFree).value;
    L["pmemkit.tx_commit_us"] = self_us(spans, self, kSpanCommit).value;

    // One thread alone on a fresh, identically filled pool: first a fixed
    // count of transactions for the exact fence count, then the 1-thread
    // throughput the scaling ratio divides by.
    std::vector<Worker> solo;
    for (int t = 0; t < kThreads; ++t) solo.emplace_back(opt.seed, t);
    api::Pool one = create_filled(*rt, "tx-solo.pool", solo, vp);
    TxRoot* root = root_of(one);
    const std::uint64_t f0 = pmemkit::PersistentRegion::thread_drain_count();
    for (std::size_t i = 0; i < kFencePassTx; ++i)
      step(one, root, solo[0], 0, vp, false, false);
    report.attempted += kFencePassTx + solo[0].reads;
    report.fail(solo[0].bad, "slot read saw a wrong stamp (fence pass)");
    L["pmemkit.fences_per_tx"] =
        static_cast<double>(pmemkit::PersistentRegion::thread_drain_count() -
                            f0) /
        kFencePassTx;
    const Run single = timed(one, solo, 1, opt.seconds, vp, false, report);
    L["pmemkit.tx_scaling_1_to_4"] =
        single.phase.ops_s > 0 ? plain.phase.ops_s / single.phase.ops_s : 0.0;
    report.note("tx_ops_s_1_thread", std::to_string(single.phase.ops_s));
    one.pmem().mark_crashed();

    // Spans out: the first 400k (the rest stay in memory for the numbers).
    spans.resize(std::min<std::size_t>(spans.size(), 400000));
    for (Span& s : spans)
      if (s.parent >= static_cast<std::int32_t>(spans.size())) s.parent = -1;
    write_spans(opt.trace_dir / ("pool_tx_mt-seed" + std::to_string(opt.seed) +
                                 ".spans.jsonl"),
                spans, kSpanNames, report);
  }
  rt.reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench

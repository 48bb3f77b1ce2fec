// cxlpmemd — a networked, sharded KV pool daemon on the cxlpmem facade.
//
// Serves a RESP subset (GET / SET / DEL / EXISTS / PING / INFO) over
// loopback TCP, backed by N persistent shard pools on one namespace of the
// paper's Setup #1 machine — by default pmem2, the battery-backed CXL
// expander.  A SET is acknowledged only after its transaction committed,
// so anything the daemon acked survives kill -9 (the kill-restart smoke
// holds it to that).  redis-cli interops:
//
//   $ cxlpmemd --dir /tmp/kvpool --port 6399 &
//   READY port=6399 shards=4 ns=pmem2 node=2
//   $ redis-cli -p 6399 SET greeting hello
//   OK
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain every
// in-flight transaction to commit, flush replies, close the pools — a
// restart reports clean shutdown and zero busy lanes.
//
// Chaos hook: CXLPMEM_FAULTS (+ CXLPMEM_FAULT_SEED) arms the deterministic
// media + link fault schedule before the server starts — see
// pmemkit/faultkit.hpp for the DSL.
// A shard whose media fails quarantines itself and self-heals (INFO grows
// a '# Health' section); --max-queue bounds each shard's request queue
// (overflow answers typed Busy).
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "api/cxlpmem.hpp"
#include "pmemkit/faultkit.hpp"
#include "service/server.hpp"

using namespace cxlpmem;

namespace {

/// Daemon version: tracks the pool layout generation it serves (layout v2
/// images, v1 migration, live resize, background compaction, DRAM tier,
/// fault injection + shard self-healing).
constexpr const char* kVersion = "cxlpmemd 0.9.0 (pool layout v2)";

void print_usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s --dir <pool-dir> [--port N] [--shards N] [--ns NAME]\n"
      "          [--pool-mb N] [--max-batch N] [--compact-above PCT]\n"
      "          [--tier-dram-bytes N] [--tier-codec NAME]\n"
      "  --dir           directory holding the shard pool files (required)\n"
      "  --port          TCP port on 127.0.0.1 (default 6399; 0 = ephemeral)\n"
      "  --shards        worker/pool count (default 4)\n"
      "  --ns            namespace: pmem0 | pmem1 | pmem2 (default pmem2)\n"
      "  --pool-mb       per-shard pool size in MiB (default 64)\n"
      "  --max-batch     requests folded into one commit (default 64)\n"
      "  --compact-above background-compact a shard when its heap\n"
      "                  fragmentation exceeds PCT%% (default 75; 0 = off)\n"
      "  --tier-dram-bytes  enable the tiered DRAM front-end with this\n"
      "                  total DRAM budget in bytes (0 = size it from the\n"
      "                  machine via the placement advisor).  Hot values\n"
      "                  are served from DRAM; every entry stays a\n"
      "                  compressed, fingerprinted block in its shard\n"
      "                  pool, written inside the batch transaction before\n"
      "                  the ack — durability is unchanged.  INFO grows a\n"
      "                  '# Tier' telemetry section.\n"
      "  --tier-codec    cold-block codec, lz | identity (default lz);\n"
      "                  giving this flag alone also enables the tier\n"
      "  --max-queue     per-shard request queue bound; overflow answers\n"
      "                  typed Busy (default 1024; 0 = unbounded)\n"
      "  --reopen-attempts  bounded reopen-with-recovery passes a\n"
      "                  quarantined shard runs before giving up (default 6)\n"
      "  --version       print the version string and exit\n"
      "  --help          print this help and exit\n"
      "environment:\n"
      "  CXLPMEM_FAULTS      fault schedule DSL for the media sites\n"
      "                      (create open resize sync serve) and the link\n"
      "                      sites (send recv connect), e.g.\n"
      "                      'serve:corrupt@5;recv:reset@3+4096;\n"
      "                      random:seed=7,rate=300,sites=send|recv'\n"
      "                      (pmemkit/faultkit.hpp); the armed plan is\n"
      "                      echoed on stderr at start-up\n"
      "  CXLPMEM_FAULT_SEED  overrides every random entry's seed\n",
      argv0);
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 2;
}

/// Reads all of `text` as a whole number into `out`; false when it is not
/// one or does not fit T.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* last = text + std::strlen(text);
  const auto [end, ec] = std::from_chars(text, last, out);
  return ec == std::errc() && end == last;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  service::ServerOptions opts;
  opts.port = 6399;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (arg == "--version" || arg == "-V") {
      std::printf("%s\n", kVersion);
      return 0;
    }
    if (val == nullptr) return usage(argv[0]);
    // A number must be whole and fit its field: a typo must not quietly
    // become another port, the minimum pool size or "feature off".
    bool ok = true;
    if (arg == "--dir") dir = val;
    else if (arg == "--port") ok = parse_number(val, opts.port);
    else if (arg == "--shards") ok = parse_number(val, opts.shards);
    else if (arg == "--ns") opts.ns = val;
    else if (arg == "--pool-mb") {
      std::uint64_t mb = 0;
      ok = parse_number(val, mb) && mb > 0 &&
           mb <= std::numeric_limits<std::uint64_t>::max() >> 20;
      opts.pool_size_bytes = mb << 20;
    } else if (arg == "--max-batch") ok = parse_number(val, opts.max_batch);
    else if (arg == "--compact-above") {
      int pct = 0;
      ok = parse_number(val, pct);
      opts.compact_above = pct / 100.0;
    } else if (arg == "--tier-dram-bytes") {
      opts.tier = true;
      ok = parse_number(val, opts.tier_dram_bytes);
    } else if (arg == "--tier-codec") {
      opts.tier = true;
      opts.tier_codec = val;
    } else if (arg == "--max-queue") {
      ok = parse_number(val, opts.max_queue);
    } else if (arg == "--reopen-attempts") {
      ok = parse_number(val, opts.reopen_attempts);
    } else return usage(argv[0]);
    if (!ok) return usage(argv[0]);
    ++i;
  }
  if (dir.empty()) return usage(argv[0]);

  // Arm the fault schedule before any pool opens or socket binds, so the
  // very first media/link operation is already under it.  A malformed
  // schedule is a fatal config error — a chaos run that silently runs
  // faultless would report a lie; so is the retired link-only variable.
  if (const char* net = std::getenv("CXLPMEM_NET_FAULTS");
      net != nullptr && *net != '\0') {
    std::fprintf(stderr,
                 "cxlpmemd: CXLPMEM_NET_FAULTS is no longer read; put the "
                 "link entries (send/recv/connect) into CXLPMEM_FAULTS\n");
    return 2;
  }
  try {
    if (const std::optional<pmemkit::FaultPlan> plan =
            pmemkit::arm_faults_from_env())
      std::fprintf(stderr, "cxlpmemd: fault injection armed: %s\n",
                   plan->to_dsl().c_str());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cxlpmemd: %s\n", e.what());
    return 2;
  }

  // Block the shutdown signals BEFORE any thread exists, so every thread
  // the server spawns inherits the mask and sigwait() below is the only
  // consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  api::Result<api::Runtime> rt =
      api::RuntimeBuilder::setup_one().base_dir(dir).build();
  if (!rt.ok()) {
    std::fprintf(stderr, "cxlpmemd: runtime: %s\n",
                 rt.error().to_string().c_str());
    return 1;
  }
  api::Result<std::unique_ptr<service::Server>> server =
      service::Server::start(rt.value(), opts);
  if (!server.ok()) {
    std::fprintf(stderr, "cxlpmemd: start: %s\n",
                 server.error().to_string().c_str());
    return 1;
  }
  service::Server& srv = *server.value();

  const service::ServerInfo boot = srv.info();
  // The READY line is the launch contract: harnesses (kill smoke, bench)
  // parse the port off it rather than racing a fixed port.
  std::printf("READY port=%u shards=%d ns=%s node=%d\n",
              static_cast<unsigned>(srv.port()), srv.shard_count(),
              boot.ns.c_str(), boot.numa_node);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&mask, &sig);
  std::fprintf(stderr, "cxlpmemd: %s — draining\n", strsignal(sig));
  srv.stop();

  const service::ServerInfo fin = srv.info();
  std::uint64_t ops = 0, keys = 0;
  for (const service::ShardInfo& s : fin.shards) {
    ops += s.ops;
    keys += s.keys;
  }
  std::fprintf(stderr,
               "cxlpmemd: stopped cleanly (%llu ops served, %llu keys, "
               "%llu connections)\n",
               static_cast<unsigned long long>(ops),
               static_cast<unsigned long long>(keys),
               static_cast<unsigned long long>(fin.connections_accepted));
  return 0;
}

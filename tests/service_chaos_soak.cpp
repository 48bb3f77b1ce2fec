// service_chaos_soak — the whole fault-tolerance story against the real
// daemon binary: media faults, link faults, SIGKILL, restart, recovery.
//
//   service_chaos_soak <path-to-cxlpmemd> <scratch-dir> [seed]
//
// 1. start cxlpmemd with one fault schedule armed via CXLPMEM_FAULTS:
//    one deterministic serve-loop corruption (forces a quarantine +
//    rejoin), a low-rate random stream of eio/corrupt/stall on the serve
//    site, and a second random entry of stall/reset on the daemon's
//    sockets (clients see timeouts and dead streams);
// 2. four writer threads stream unique-key SETs through RetryingClient,
//    recording every acknowledged key — the retry loop is expected to ride
//    through Unavailable (quarantine), Busy (shed), Timeout and resets;
// 3. mid-soak, assert the health telemetry shows the quarantine AND that
//    the service still answers a fresh write (liveness while degraded);
// 4. SIGKILL the daemon mid-load, restart it on the same pools with the
//    same fault schedule (recovery under fire), keep the load running;
// 5. stop the load, SIGTERM the chaos daemon, then start a CLEAN daemon
//    (no faults) and read back every acknowledged key: ack-durability
//    means zero lost, chaos or no chaos.
//
// Every schedule is deterministic in the seed printed on the first line —
// a failure replays exactly with `service_chaos_soak <bin> <dir> <seed>`.
//
// Not a gtest on purpose: it orchestrates processes and owns its exit
// code, the way the CI chaos-soak job runs it.
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/retry.hpp"

namespace fs = std::filesystem;
using namespace cxlpmem;

namespace {

std::uint64_t g_seed = 0;

struct Daemon {
  pid_t pid = -1;
  int out = -1;  ///< read end of the child's stdout
  std::uint16_t port = 0;
};

int fail(const char* what) {
  std::fprintf(stderr,
               "FAIL: %s\nreplay: service_chaos_soak <bin> <dir> %llu\n",
               what, static_cast<unsigned long long>(g_seed));
  return 1;
}

/// fork/execs cxlpmemd --dir `dir` --port 0, with the chaos environment
/// when `chaos` is set, and blocks until its READY line (or EOF) arrives.
bool spawn_daemon(const std::string& binary, const fs::path& dir, bool chaos,
                  Daemon& d) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) return false;
  d.pid = ::fork();
  if (d.pid < 0) return false;
  if (d.pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    if (chaos) {
      // One guaranteed quarantine early, then a low random drizzle of
      // serve-site faults; link faults stall/reset the daemon's sockets.
      // Random media faults stay off the open/create/resize sites so the
      // reopen-with-recovery path itself isn't poisoned — bounded reopen
      // failure is covered deterministically in service_fault_test.
      const std::string seed = std::to_string(g_seed);
      const std::string plan =
          "serve:corrupt@5;random:seed=" + seed +
          ",rate=1500,sites=serve,stall=5;random:seed=" + seed +
          ",rate=300,sites=send|recv|connect,stall=5";
      ::setenv("CXLPMEM_FAULTS", plan.c_str(), 1);
    } else {
      ::unsetenv("CXLPMEM_FAULTS");
    }
    const std::string dir_s = dir.string();
    ::execl(binary.c_str(), binary.c_str(), "--dir", dir_s.c_str(), "--port",
            "0", "--shards", "4", "--pool-mb", "16", "--max-queue", "128",
            static_cast<char*>(nullptr));
    std::perror("execl");
    ::_exit(127);
  }
  ::close(pipefd[1]);
  d.out = pipefd[0];
  std::string line;
  char ch = 0;
  while (::read(d.out, &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "READY port=%u", &port) != 1) {
    std::fprintf(stderr, "no READY line, got: '%s'\n", line.c_str());
    return false;
  }
  d.port = static_cast<std::uint16_t>(port);
  return true;
}

void reap(Daemon& d) {
  if (d.out >= 0) ::close(d.out);
  if (d.pid > 0) {
    int status = 0;
    ::waitpid(d.pid, &status, 0);
  }
  d = Daemon{};
}

/// The writers' retry policy: generous enough to ride through a
/// quarantine window AND the kill/restart gap, deterministic per writer.
service::RetryPolicy writer_policy(std::uint64_t writer) {
  service::RetryPolicy p;
  p.max_attempts = 30;
  p.base_backoff_ms = 5;
  p.max_backoff_ms = 100;
  // Short enough that a writer whose daemon was SIGKILLed gives up on the
  // stale port quickly and reconnects at the new one (the outer loop
  // re-reads it); long enough to ride out any quarantine window.
  p.budget_ms = 1500;
  p.seed = g_seed ^ (writer * 0x9e3779b97f4a7c15ull);
  return p;
}

std::uint64_t info_counter(const std::string& info, const char* field) {
  const std::size_t pos = info.find(field);
  if (pos == std::string::npos) return 0;
  return std::strtoull(info.c_str() + pos + std::strlen(field), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 && argc != 4) {
    std::fprintf(stderr, "usage: %s <cxlpmemd> <scratch-dir> [seed]\n",
                 argv[0]);
    return 2;
  }
  const std::string binary = argv[1];
  const fs::path dir = argv[2];
  g_seed = argc == 4 ? std::strtoull(argv[3], nullptr, 10) : 20230823ull;
  std::printf("chaos soak: seed=%llu (pass it back as argv[3] to replay)\n",
              static_cast<unsigned long long>(g_seed));
  fs::remove_all(dir);
  fs::create_directories(dir);

  Daemon d;
  if (!spawn_daemon(binary, dir, /*chaos=*/true, d))
    return fail("could not start cxlpmemd under chaos");
  std::printf("chaos daemon up on port %u\n", static_cast<unsigned>(d.port));

  // Writers stream unique-key SETs through the retry loop; a key is
  // recorded iff its OK arrived, so "acked" fully determines what every
  // later daemon must serve.  The port is re-read each connect so writers
  // follow the daemon across the kill/restart below.
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint16_t> port{d.port};
  std::atomic<std::uint64_t> acked_total{0};
  std::vector<std::vector<std::string>> acked(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // One client per burst; a failed SET (budget spent — daemon dead
        // or mid-restart) ends the burst so the next one re-reads the
        // port and follows the daemon across the kill.
        service::RetryingClient rc(
            port.load(std::memory_order_relaxed), "127.0.0.1",
            service::ClientOptions{1000, 1000},
            writer_policy(static_cast<std::uint64_t>(w)));
        for (int j = 0; j < 64 && !stop.load(std::memory_order_relaxed);
             ++j) {
          const std::string key =
              "w" + std::to_string(w) + "/k" + std::to_string(i++);
          if (!rc.set(key, "value-of-" + key).ok()) break;
          acked[static_cast<std::size_t>(w)].push_back(key);
          acked_total.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

  // Phase 1: load under media + link faults.  The fixed serve:corrupt@5
  // guarantees a quarantine; the health section must show it, and the
  // service must still take a fresh write while (or after) recovering.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  {
    service::RetryingClient probe(d.port, "127.0.0.1",
                                  service::ClientOptions{2000, 2000},
                                  writer_policy(99));
    const auto live = probe.set("soak/liveness", "ok");
    if (!live.ok()) {
      std::fprintf(stderr, "liveness write failed: %s\n",
                   live.error().to_string().c_str());
      return fail("service stopped answering under chaos");
    }
    const auto info = probe.info();
    if (!info.ok()) return fail("INFO failed under chaos");
    const std::uint64_t quarantines =
        info_counter(info.value(), "quarantines_total:");
    const std::uint64_t rejoins = info_counter(info.value(), "rejoins_total:");
    std::printf("mid-soak health: quarantines=%llu rejoins=%llu shed=%llu\n",
                static_cast<unsigned long long>(quarantines),
                static_cast<unsigned long long>(rejoins),
                static_cast<unsigned long long>(
                    info_counter(info.value(), "busy_shed_total:")));
    if (quarantines == 0)
      return fail("serve:corrupt@5 never quarantined a shard");
  }

  // Phase 2: power cut mid-load, restart on the same pools with the same
  // schedule — open-time recovery runs with the faults armed.
  ::kill(d.pid, SIGKILL);
  reap(d);
  if (!spawn_daemon(binary, dir, /*chaos=*/true, d))
    return fail("could not restart cxlpmemd under chaos");
  port.store(d.port, std::memory_order_relaxed);
  const std::uint64_t acked_before_restart =
      acked_total.load(std::memory_order_relaxed);
  std::printf("restarted after SIGKILL on port %u\n",
              static_cast<unsigned>(d.port));
  // Long enough for every writer to burn its stale-port budget, reconnect
  // and land real load on the restarted daemon.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  if (acked_total.load(std::memory_order_relaxed) <= acked_before_restart)
    return fail("no SET was acknowledged by the restarted daemon");
  std::size_t total_acked = 0;
  for (const auto& v : acked) total_acked += v.size();
  std::printf("soak done: %zu acknowledged SETs across the kill\n",
              total_acked);
  if (total_acked == 0)
    return fail("no SET was acknowledged — the soak built no load");

  // The chaos daemon must still die gracefully (quarantined or not).
  ::kill(d.pid, SIGTERM);
  {
    int status = 0;
    ::waitpid(d.pid, &status, 0);
    ::close(d.out);
    d = Daemon{};
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      return fail("chaos daemon did not exit cleanly on SIGTERM");
  }

  // Phase 3: the verdict.  A clean daemon (no faults) serves the same
  // pools; every acknowledged SET must read back — media lies, link lies
  // and a SIGKILL notwithstanding.
  if (!spawn_daemon(binary, dir, /*chaos=*/false, d))
    return fail("could not start the clean verification daemon");
  auto conn = service::Client::connect(d.port);
  if (!conn.ok()) return fail("could not connect to verification daemon");
  service::Client c = std::move(conn).value();
  std::size_t lost = 0;
  for (const auto& keys : acked)
    for (const std::string& key : keys) {
      const auto got = c.get(key);
      if (!got.ok() || !got.value().has_value() ||
          *got.value() != "value-of-" + key) {
        if (++lost <= 5)
          std::fprintf(stderr, "lost acknowledged key %s\n", key.c_str());
      }
    }
  if (lost != 0) {
    std::fprintf(stderr, "%zu of %zu acknowledged SETs lost\n", lost,
                 total_acked);
    return fail("ack-durability violated");
  }
  std::printf("all %zu acknowledged SETs survived the chaos\n", total_acked);

  ::kill(d.pid, SIGTERM);
  int status = 0;
  ::waitpid(d.pid, &status, 0);
  ::close(d.out);
  d.pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    return fail("verification daemon did not exit cleanly on SIGTERM");
  std::printf("chaos soak OK (seed=%llu)\n",
              static_cast<unsigned long long>(g_seed));
  fs::remove_all(dir);
  return 0;
}

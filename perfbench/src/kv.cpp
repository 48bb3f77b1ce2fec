// kv.cpp — kv_write and kv_read_tiered: the embedded service::Server
// (cxlpmemd's engine) driven over loopback RESP in a closed loop.
//
// Load shape: one generator thread drives `conns` nonblocking connections,
// each keeping `depth` requests outstanding — cxlpmemd's callers wait for
// their replies, so the loop is closed.  Latency is send -> reply as the
// generator sees it.
//
// After the timed phase the server is stopped and restarted on the same
// pool directory, and every key is read back against the ledger: one lost
// or wrong acknowledged write fails the run.
//
// The traced run adds a second, span-recording timed phase (its difference
// to the untraced one is the tracing overhead) and an in-process replay of
// the same seeded request stream through the calls the server composes —
// RespParser, parse_command, DurableMap / TieredCache *_in_tx inside
// ObjectPool::run_tx, encode_* — which yields the per-layer self times.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/cxlpmem.hpp"
#include "gen.hpp"
#include "service/durable_map.hpp"
#include "service/resp.hpp"
#include "service/server.hpp"
#include "tierkv/cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cxlpmem;

namespace {

constexpr double kTailQ = 0.99;
constexpr std::uint64_t kIdleTimeoutNs = 10'000'000'000ull;

// Span names of the kv traces.
enum : std::uint32_t { kSpanSet, kSpanGet, kSpanReq, kSpanParse, kSpanMapGet,
                       kSpanMapPut, kSpanTierHit, kSpanTierMiss, kSpanTierPut,
                       kSpanEncode, kSpanCommit };
const std::vector<std::string> kSpanNames = {
    "wire.set", "wire.get", "replay.request", "service.parse", "map.get",
    "map.put_in_tx", "tierkv.get_hit", "tierkv.get_miss", "tierkv.put_in_tx",
    "service.encode", "pmemkit.commit"};

enum class Mode { Preload, Mix, ReadBack };

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Latency by window of the timed phase [t0, t1).
  Windows set_us, get_us;
  std::uint64_t t0 = 0, t1 = 1;
  std::string first_error;

  void bad(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

/// The closed-loop generator: nonblocking sockets under one epoll set.
class Driver {
 public:
  Driver(std::vector<KvStream>& streams, const ValuePool& pool, int depth)
      : streams_(streams), pool_(pool), depth_(depth) {}
  ~Driver() { close_all(); }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  void connect(std::uint16_t port) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) throw std::runtime_error("epoll_create1 failed");
    conns_.resize(streams_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("socket failed");
      conns_[i].fd = fd;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        throw std::runtime_error("connect failed");
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
    }
  }

  void close_all() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(std::exchange(c.fd, -1));
    conns_.clear();
    if (ep_ >= 0) ::close(std::exchange(ep_, -1));
  }

  /// Preload / ReadBack walk every owned key once; Mix issues the stream
  /// until `deadline` or `max_requests`, then drains what is outstanding.
  /// Latencies (and, with a tracer, one span per request) are recorded
  /// only when `record` is set.
  void run(Mode mode, std::uint64_t deadline, std::uint64_t max_requests,
           bool record, Tally& t, Tracer* tracer) {
    for (Conn& c : conns_) c.cursor = 0;
    std::uint64_t issued = 0;
    std::uint64_t idle_since = now_ns();
    epoll_event evs[16];
    for (;;) {
      const bool stop = mode == Mode::Mix &&
                        (issued >= max_requests || now_ns() >= deadline);
      bool open = false;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        KvStream& s = streams_[i];
        const std::size_t before = c.pending.size();
        while (!stop && !c.dead &&
               c.pending.size() < static_cast<std::size_t>(depth_)) {
          Req r;
          if (mode == Mode::Mix) {
            if (issued >= max_requests) break;
            r = s.next();
            ++issued;
          } else {
            if (c.cursor >= s.keys()) break;
            r = mode == Mode::Preload ? s.preload(c.cursor) : s.expect(c.cursor);
            ++c.cursor;
          }
          encode_request(c.out, r, s.key(r.key), pool_);
          c.pending.push_back(Pending{0, r});
        }
        const std::uint64_t sent = now_ns();
        for (std::size_t k = before; k < c.pending.size(); ++k)
          c.pending[k].sent = sent;
        if (c.out_off < c.out.size()) flush(i, t);
        if (!c.pending.empty()) open = true;
      }
      bool more = mode == Mode::Mix && !stop;
      for (std::size_t i = 0; mode != Mode::Mix && i < conns_.size(); ++i)
        more = more || (!conns_[i].dead && conns_[i].cursor < streams_[i].keys());
      if (!open && !more) break;
      const int n = ::epoll_wait(ep_, evs, 16, 100);
      if (n <= 0) {
        if (now_ns() - idle_since > kIdleTimeoutNs) {
          for (Conn& c : conns_) {
            for (std::size_t k = 0; k < c.pending.size(); ++k)
              t.bad("request timed out");
            t.attempted += c.pending.size();
            c.pending.clear();
            c.dead = true;
          }
          return;
        }
        continue;
      }
      idle_since = now_ns();
      for (int e = 0; e < n; ++e) {
        const std::size_t i = evs[e].data.u32;
        if (evs[e].events & EPOLLOUT) flush(i, t);
        if (evs[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
          read_replies(i, mode, record, t, tracer);
      }
    }
  }

 private:
  struct Pending {
    std::uint64_t sent = 0;
    Req req;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    service::RespParser parser;
    std::deque<Pending> pending;
    std::uint32_t cursor = 0;
    bool dead = false;
    bool want_out = false;
  };

  void kill(std::size_t i, Tally& t, const std::string& why) {
    Conn& c = conns_[i];
    t.attempted += c.pending.size();
    for (std::size_t k = 0; k < c.pending.size(); ++k) t.bad(why);
    c.pending.clear();
    c.out.clear();
    c.out_off = 0;
    c.dead = true;
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
  }

  void flush(std::size_t i, Tally& t) {
    Conn& c = conns_[i];
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_out) set_interest(i, true);
        return;
      }
      kill(i, t, "send failed");
      return;
    }
    c.out.clear();
    c.out_off = 0;
    if (c.want_out) set_interest(i, false);
  }

  void set_interest(std::size_t i, bool out) {
    Conn& c = conns_[i];
    c.want_out = out;
    epoll_event ev{};
    ev.events = EPOLLIN | (out ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(i);
    ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void read_replies(std::size_t i, Mode mode, bool record, Tally& t,
                    Tracer* tracer) {
    Conn& c = conns_[i];
    if (c.dead) return;
    char buf[64 * 1024];
    bool got = false;
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        got = true;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      kill(i, t, "connection closed by the server");
      return;
    }
    if (!got) return;
    const std::uint64_t at = now_ns();
    const KvStream& s = streams_[i];
    service::RespValue v;
    for (;;) {
      const service::RespParser::Status st = c.parser.next(v);
      if (st == service::RespParser::Status::NeedMore) break;
      if (st == service::RespParser::Status::Malformed || c.pending.empty()) {
        kill(i, t, "malformed or unexpected reply");
        return;
      }
      const Pending p = c.pending.front();
      c.pending.pop_front();
      ++t.attempted;
      const bool set = p.req.op == Op::Set;
      bool ok = false;
      if (set) {
        ok = v.type == service::RespValue::Type::Simple && v.text == "OK";
      } else {
        ok = v.type == service::RespValue::Type::Bulk &&
             check_value(v.text, pool_, s.key(p.req.key), p.req.version,
                         p.req.len);
      }
      if (!ok)
        t.bad(std::string(set ? "SET " : "GET ") + s.key(p.req.key) + ": " +
              (v.type == service::RespValue::Type::Error ? v.text
                                                         : "wrong value"));
      if (record && mode == Mode::Mix) {
        const double us = static_cast<double>(at - p.sent) / 1000.0;
        const int w = static_cast<int>(
            static_cast<double>(at - t.t0) / static_cast<double>(t.t1 - t.t0) *
            t.set_us.windows());
        (set ? t.set_us : t.get_us).add(w, us);
        if (tracer != nullptr)
          tracer->add(set ? kSpanSet : kSpanGet, p.sent, at, -1,
                      next_req_++);
      }
    }
  }

  std::vector<KvStream>& streams_;
  const ValuePool& pool_;
  int depth_;
  int ep_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t next_req_ = 0;
};

service::ServerOptions server_options(const KvShape& shape) {
  service::ServerOptions o;  // pmem2, 4 shards, 64 MiB shard pools
  o.tier = shape.tier;
  if (shape.tier) {
    o.tier_codec = "lz";
    o.tier_dram_bytes = shape.tier_dram_bytes;
  }
  return o;
}

std::unique_ptr<service::Server> start_server(api::Runtime& rt,
                                              const KvShape& shape) {
  api::Result<std::unique_ptr<service::Server>> s =
      service::Server::start(rt, server_options(shape));
  if (!s.ok()) throw std::runtime_error("server: " + s.error().to_string());
  return std::move(s).value();
}

/// Server::info() counters summed over shards.
struct InfoSum {
  std::uint64_t ops = 0, batches = 0, keys = 0, shed = 0, compactions = 0,
                compacted_bytes = 0;
  tierkv::TierStats tier;
};

InfoSum sum_info(const service::Server& server) {
  const service::ServerInfo info = server.info();
  InfoSum s;
  for (const service::ShardInfo& sh : info.shards) {
    s.ops += sh.ops;
    s.batches += sh.batches;
    s.keys += sh.keys;
    s.shed += sh.shed;
    s.compactions += sh.compactions;
    s.compacted_bytes += sh.compacted_bytes;
  }
  s.tier = info.tier_stats;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One live set-up: runtime, server, generator state, connections.
struct Live {
  std::optional<api::Runtime> rt;
  std::unique_ptr<service::Server> server;
  std::vector<KvStream> streams;
  std::unique_ptr<Driver> driver;

  void teardown() {
    driver.reset();
    if (server) server->stop();
    server.reset();
  }
};

void absorb(Report& r, const Tally& t, const char* what) {
  r.attempted += t.attempted;
  if (t.failed) r.fail(t.failed, std::string(what) + ": " + t.first_error);
}

/// Runtime, pools, server start, preload and warm-up.
void set_up(Live& live, const fs::path& dir, const KvShape& shape,
            std::uint64_t seed, const ValuePool& pool, Report& report,
            std::string& warm_rates) {
  fs::remove_all(dir);
  live.rt.emplace(make_runtime(dir));
  live.server = start_server(*live.rt, shape);
  live.streams.clear();
  for (int c = 0; c < shape.conns; ++c) live.streams.emplace_back(shape, seed, c);
  live.driver = std::make_unique<Driver>(live.streams, pool, shape.depth);
  live.driver->connect(live.server->port());
  Tally pre;
  live.driver->run(Mode::Preload, 0, 0, false, pre, nullptr);
  absorb(report, pre, "preload");
  Tally warm;
  if (!shape.tier) {
    live.driver->run(Mode::Mix, UINT64_MAX, shape.warmup_requests, false,
                     warm, nullptr);
  } else {
    // A fixed warm-up long enough for the DRAM tier's hit rate to level
    // off (window to window change under one point by the last windows);
    // the per-window hit rates are noted so the levelling shows.
    std::string rates;
    for (int w = 0; w < shape.warmup_windows; ++w) {
      const InfoSum a = sum_info(*live.server);
      live.driver->run(Mode::Mix, UINT64_MAX, 8192, false, warm, nullptr);
      const InfoSum b = sum_info(*live.server);
      const double hits = static_cast<double>(b.tier.hits - a.tier.hits);
      rates += std::to_string(
                   ratio(hits, hits + static_cast<double>(b.tier.misses -
                                                          a.tier.misses))) +
               " ";
    }
    warm_rates = rates;
  }
  absorb(report, warm, "warm-up");
}

struct Timed {
  Phase phase;
  InfoSum before, after;
  std::uint64_t gets = 0;
  double all_p50_us = 0;  ///< median latency of every request
};

Timed timed_phase(Live& live, double seconds, Tracer* tracer, Report& report) {
  Timed out;
  Tally t;
  out.before = sum_info(*live.server);
  const StealMeter steal;
  t.t0 = now_ns();
  t.t1 = t.t0 + static_cast<std::uint64_t>(seconds * 1e9);
  // The server's threads only: the generator runs on this thread.
  const pthread_t generator = ::pthread_self();
  CpuWindows cpu_windows(t.t0, t.t1 - t.t0, t.set_us.windows(), &generator);
  live.driver->run(Mode::Mix, t.t1, UINT64_MAX, true, t, tracer);
  const std::vector<WindowCpu> cpu_s = cpu_windows.finish();
  out.phase.steal_frac = steal.steal_frac();
  out.after = sum_info(*live.server);
  absorb(report, t, "timed phase");
  out.gets = t.get_us.count();
  Windows all = t.set_us;
  all.merge(t.get_us);
  out.all_p50_us = all.median_of(0.5).value;
  out.phase.ops_s = all.median_rate(seconds / all.windows());
  out.phase.cpu_us_per_op = quiet_cpu_us_per_op(cpu_s, all);
  out.phase.write_p50 = t.set_us.median_of(0.5);
  out.phase.write_tail = t.set_us.median_of(kTailQ);
  out.phase.read_p50 = t.get_us.median_of(0.5);
  out.phase.read_tail = t.get_us.median_of(kTailQ);
  return out;
}

struct PoolSums {
  std::uint64_t reserved = 0, live = 0;
};

/// Heap occupancy of the (stopped) server's shard pools.
PoolSums shard_pool_stats(api::Runtime& rt, int shards) {
  PoolSums s;
  for (int i = 0; i < shards; ++i) {
    api::PoolSpec spec;
    spec.file = "kvshard-" + std::to_string(i) + ".pool";
    api::Result<api::Pool> p = rt.open_pool("pmem2", "cxlpmemd-kv", spec);
    if (!p.ok()) throw std::runtime_error("reopen shard pool: " +
                                          p.error().to_string());
    const pmemkit::PoolStats st = p.value().stats();
    s.reserved += st.heap.reserved_bytes;
    s.live += st.heap.live_bytes;
  }
  return s;
}

// --- the in-process replay (traced run) --------------------------------------

std::uint64_t route_hash(std::string_view key) {
  // The server's shard routing hash (fnv1a64), so each replay shard holds
  // the keys — and the chain lengths — of its live counterpart.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : key)
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

struct ReplayShard {
  std::unique_ptr<api::Pool> pool;
  std::unique_ptr<service::DurableMap> map;
  std::unique_ptr<tierkv::TieredCache> tier;
  std::unique_ptr<pmemkit::ObjectPool::LaneSession> lane;
  std::vector<std::pair<int, Req>> burst;  ///< (connection, request)
};

struct ReplayStats {
  std::uint64_t fences = 0, fence_sets = 0;
  std::vector<double> request_us;  ///< per-request replay time incl. commit share
};

class Replay {
 public:
  Replay(api::Runtime& rt, const KvShape& shape, std::uint64_t seed,
         const ValuePool& pool, int shards)
      : shape_(shape), pool_(pool) {
    for (int c = 0; c < shape.conns; ++c) streams_.emplace_back(shape, seed, c);
    parsers_.resize(static_cast<std::size_t>(shape.conns));
    for (int i = 0; i < shards; ++i) {
      auto sh = std::make_unique<ReplayShard>();
      api::PoolSpec spec;
      spec.file = "replay-" + std::to_string(i) + ".pool";
      spec.size = 64ull << 20;
      api::Result<api::Pool> p = rt.create_pool("pmem2", "cxlpmemd-kv", spec);
      if (!p.ok())
        throw std::runtime_error("replay pool: " + p.error().to_string());
      sh->pool = std::make_unique<api::Pool>(std::move(p).value());
      sh->map = std::make_unique<service::DurableMap>(sh->pool->pmem());
      if (shape.tier) {
        tierkv::TierOptions to;
        to.codec = "lz";
        to.dram_bytes = std::max<std::uint64_t>(
            shape.tier_dram_bytes / static_cast<std::uint64_t>(shards),
            64 * 1024);
        sh->tier = std::make_unique<tierkv::TieredCache>(*sh->map, to);
      }
      sh->lane = std::make_unique<pmemkit::ObjectPool::LaneSession>(
          sh->pool->pmem());
      shards_.push_back(std::move(sh));
    }
  }

  ~Replay() {
    for (auto& sh : shards_) {
      sh->lane.reset();
      sh->tier.reset();
      sh->map.reset();
      sh->pool.reset();
    }
  }

  /// Loads every key at version 0 (untimed, batches of 64).
  void preload(Report& report) {
    for (std::size_t c = 0; c < streams_.size(); ++c)
      for (std::uint32_t id = 0; id < streams_[c].keys(); ++id)
        enqueue(static_cast<int>(c), streams_[c].preload(id), 64, nullptr,
                report);
    flush_all(nullptr, report);
  }

  /// Replays the next `n` mix requests (round-robin over connections), in
  /// bursts of `burst` per shard.
  void run(std::size_t n, std::size_t burst, Tracer* tracer, Report& report) {
    stats = ReplayStats{};
    for (std::size_t k = 0; k < n; ++k) {
      const int c = static_cast<int>(k % streams_.size());
      enqueue(c, streams_[static_cast<std::size_t>(c)].next(), burst, tracer,
              report);
    }
    flush_all(tracer, report);
  }

  ReplayStats stats;

 private:
  void enqueue(int conn, const Req& r, std::size_t burst, Tracer* tracer,
               Report& report) {
    const std::string key = streams_[static_cast<std::size_t>(conn)].key(r.key);
    ReplayShard& sh = *shards_[route_hash(key) % shards_.size()];
    sh.burst.emplace_back(conn, r);
    if (sh.burst.size() >= burst) execute(sh, tracer, report);
  }

  void flush_all(Tracer* tracer, Report& report) {
    for (auto& sh : shards_)
      if (!sh->burst.empty()) execute(*sh, tracer, report);
  }

  /// One server batch: mutations fold into one transaction; a read-only
  /// burst runs outside any transaction.
  void execute(ReplayShard& sh, Tracer* tracer, Report& report) {
    wire_.clear();
    for (const auto& [conn, r] : sh.burst) {
      std::string bytes;
      encode_request(bytes, r,
                     streams_[static_cast<std::size_t>(conn)].key(r.key),
                     pool_);
      wire_.push_back(std::move(bytes));
    }
    const bool writes = std::any_of(
        sh.burst.begin(), sh.burst.end(),
        [](const auto& e) { return e.second.op == Op::Set; });
    roots_.clear();
    const std::uint64_t burst_id = next_burst_++;
    if (writes) {
      std::unique_lock<std::mutex> tier_lock;
      if (sh.tier) tier_lock = sh.tier->batch_lock();
      const std::uint64_t f0 = pmemkit::PersistentRegion::thread_drain_count();
      std::uint64_t body_end = 0;
      sh.pool->pmem().run_tx([&] {
        for (std::size_t i = 0; i < sh.burst.size(); ++i)
          one(sh, i, true, tracer, report);
        body_end = now_ns();
      });
      const std::uint64_t done = now_ns();
      if (sh.tier) sh.tier->commit_staged();
      stats.fences += pmemkit::PersistentRegion::thread_drain_count() - f0;
      for (const auto& e : sh.burst)
        if (e.second.op == Op::Set) ++stats.fence_sets;
      if (tracer != nullptr) {
        tracer->add(kSpanCommit, body_end, done, -1, burst_id);
        const double share = static_cast<double>(done - body_end) /
                             static_cast<double>(sh.burst.size());
        for (const std::int32_t root : roots_) {
          const Span& s = tracer->spans()[static_cast<std::size_t>(root)];
          stats.request_us.push_back(
              (static_cast<double>(s.end - s.start) + share) / 1000.0);
        }
      }
    } else {
      for (std::size_t i = 0; i < sh.burst.size(); ++i)
        one(sh, i, false, tracer, report);
      if (tracer != nullptr)
        for (const std::int32_t root : roots_) {
          const Span& s = tracer->spans()[static_cast<std::size_t>(root)];
          stats.request_us.push_back(static_cast<double>(s.end - s.start) /
                                     1000.0);
        }
    }
    sh.burst.clear();
  }

  void one(ReplayShard& sh, std::size_t i, bool in_tx, Tracer* tracer,
           Report& report) {
    const auto& [conn, r] = sh.burst[i];
    const std::uint64_t rid = next_req_++;
    Tracer* tr = tracer;
    const std::int32_t root = tr ? tr->begin(kSpanReq, -1, rid) : -1;
    if (tr) roots_.push_back(root);

    std::uint64_t t0 = now_ns();
    service::RespParser& parser = parsers_[static_cast<std::size_t>(conn)];
    parser.feed(wire_[i]);
    service::RespValue frame;
    const bool framed =
        parser.next(frame) == service::RespParser::Status::Value;
    api::Result<service::Command> cmd =
        framed ? service::parse_command(frame)
               : api::Result<service::Command>(
                     api::Error{api::Errc::Protocol, "unframed request"});
    if (tr) tr->add(kSpanParse, t0, now_ns(), root, rid);
    if (!cmd.ok()) {
      report.fail(1, "replay: " + cmd.error().to_string());
      if (tr) tr->end(root);
      return;
    }
    const service::Command& c = cmd.value();
    std::optional<std::string> value;
    t0 = now_ns();
    if (c.verb == service::Verb::Set) {
      if (sh.tier)
        sh.tier->put_in_tx(c.key, c.value);
      else
        sh.map->put_in_tx(c.key, c.value);
      if (tr) tr->add(sh.tier ? kSpanTierPut : kSpanMapPut, t0, now_ns(), root,
                      rid);
    } else if (sh.tier) {
      const std::uint64_t misses = sh.tier->stats().misses;
      value = in_tx ? sh.tier->get_in_batch(c.key) : sh.tier->get(c.key);
      const std::uint64_t t1 = now_ns();
      if (tr) tr->add(sh.tier->stats().misses != misses ? kSpanTierMiss
                                                        : kSpanTierHit,
                      t0, t1, root, rid);
    } else {
      value = sh.map->get(c.key);
      if (tr) tr->add(kSpanMapGet, t0, now_ns(), root, rid);
    }
    t0 = now_ns();
    [[maybe_unused]] const std::string reply =
        c.verb == service::Verb::Set
            ? service::encode_simple("OK")
            : (value ? service::encode_bulk(*value)
                     : service::encode_null_bulk());
    if (tr) {
      tr->add(kSpanEncode, t0, now_ns(), root, rid);
      tr->end(root);
    }
    if (c.verb == service::Verb::Get &&
        (!value || !check_value(*value, pool_, c.key, r.version, r.len)))
      report.fail(1, "replay: wrong value for " + c.key);
  }

  const KvShape& shape_;
  const ValuePool& pool_;
  std::vector<KvStream> streams_;
  std::vector<service::RespParser> parsers_;
  std::vector<std::unique_ptr<ReplayShard>> shards_;
  std::vector<std::string> wire_;
  std::vector<std::int32_t> roots_;
  std::uint64_t next_req_ = 0, next_burst_ = 0;
};

}  // namespace

Outcome run_kv(const Options& opt, bool tiered) {
  const KvShape shape = tiered ? kv_read_tiered_shape() : kv_write_shape();
  const fs::path dir = opt.work / shape.name;
  const ValuePool pool(opt.seed);
  Outcome out;
  Report& report = out.report;

  SetupClock setup;
  Live live;
  std::string warm_rates;
  for (int r = 0; r < kSetups; ++r) {
    live.teardown();
    live.rt.reset();
    setup.start();
    set_up(live, dir, shape, opt.seed, pool, report, warm_rates);
    setup.stop();
  }
  setup.note(report);
  if (shape.tier) report.note("warmup_hit_rates", warm_rates);
  const int shards = live.server->shard_count();

  Timed plain = timed_phase(live, opt.seconds, nullptr, report);
  note_phase(report, plain.phase,
             {"ops_s", "set_p50_us", "set_p99_us", "get_p50_us", "get_p99_us"});
  std::optional<Timed> traced;
  Tracer wire_tracer(1u << 21);
  if (opt.trace) {
    traced = timed_phase(live, opt.seconds, &wire_tracer, report);
  }
  const InfoSum fin = sum_info(*live.server);

  // Stop, measure the heap, restart on the same directory, read back.
  live.teardown();
  const PoolSums heap = shard_pool_stats(*live.rt, shards);
  std::uint64_t user_bytes = 0;
  for (const KvStream& s : live.streams) user_bytes += s.live_bytes();
  live.rt.reset();
  live.rt.emplace(make_runtime(dir));
  live.server = start_server(*live.rt, shape);
  live.driver = std::make_unique<Driver>(live.streams, pool, shape.depth);
  live.driver->connect(live.server->port());
  Tally back;
  live.driver->run(Mode::ReadBack, 0, 0, false, back, nullptr);
  absorb(report, back, "read-back after restart");
  if (back.attempted != static_cast<std::uint64_t>(shape.conns) * shape.keys_per_conn)
    report.fail(1, "read-back did not cover every key");
  live.teardown();

  put_e2e(out, plain.phase, report,
          ratio(static_cast<double>(heap.reserved),
                static_cast<double>(user_bytes)),
          setup);
  report.note("keys", std::to_string(shape.conns * shape.keys_per_conn));
  report.note("value_bytes", std::to_string(shape.min_len) + ".." +
                                 std::to_string(shape.max_len));
  report.note("user_bytes", std::to_string(user_bytes));
  if (shape.tier)
    report.note("tier_dram_bytes", std::to_string(shape.tier_dram_bytes));

  if (opt.trace) {
    const Timed& tp = *traced;
    put_overhead(out, plain.phase, tp.phase);
    const InfoSum& a = tp.before;
    const InfoSum& b = tp.after;
    const double ops_per_commit = ratio(static_cast<double>(b.ops - a.ops),
                                        static_cast<double>(b.batches - a.batches));
    auto& L = out.layer;
    L["service.ops_per_commit"] = ops_per_commit;
    L["service.busy_shed"] = static_cast<double>(b.shed - a.shed);
    L["service.compactions"] = static_cast<double>(b.compactions - a.compactions);
    L["service.compacted_bytes"] =
        static_cast<double>(b.compacted_bytes - a.compacted_bytes);
    L["map.keys_per_bucket"] =
        ratio(static_cast<double>(fin.keys),
              static_cast<double>(shards) * service::DurableMap::bucket_count());
    L["pmemkit.reserved_bytes"] = static_cast<double>(heap.reserved);
    L["pmemkit.live_bytes"] = static_cast<double>(heap.live);
    L["pmemkit.fragmentation"] =
        heap.reserved ? 1.0 - ratio(static_cast<double>(heap.live),
                                    static_cast<double>(heap.reserved))
                      : 0.0;
    if (shape.tier) {
      const double hits = static_cast<double>(b.tier.hits - a.tier.hits);
      const double misses = static_cast<double>(b.tier.misses - a.tier.misses);
      L["tierkv.hit_rate"] = ratio(hits, hits + misses);
      L["tierkv.prefetch_accuracy"] =
          ratio(static_cast<double>(b.tier.prefetch_hits - a.tier.prefetch_hits),
                static_cast<double>(b.tier.prefetch_issued -
                                    a.tier.prefetch_issued));
      L["tierkv.promotions"] =
          static_cast<double>(b.tier.promotions - a.tier.promotions);
      L["tierkv.demotions"] =
          static_cast<double>(b.tier.demotions - a.tier.demotions);
      L["tierkv.bytes_moved_per_get"] =
          ratio(static_cast<double>(b.tier.bytes_moved - a.tier.bytes_moved),
                static_cast<double>(tp.gets));
      L["tierkv.compression_ratio"] = fin.tier.compression_ratio();
    }

    // In-process replay of the same seeded stream on private pools.
    live.rt.reset();
    live.rt.emplace(make_runtime(dir));
    Replay replay(*live.rt, shape, opt.seed, pool, shards);
    replay.preload(report);
    // Fence pass: fixed 16-request bursts (the per-connection pipeline
    // depth) over a fixed prefix, so the count repeats exactly.
    replay.run(16384, static_cast<std::size_t>(shape.depth), nullptr, report);
    L["pmemkit.fences_per_set"] =
        ratio(static_cast<double>(replay.stats.fences),
              static_cast<double>(replay.stats.fence_sets));
    report.note("fence_pass_sets", std::to_string(replay.stats.fence_sets));
    // Timing pass: bursts sized to the measured ops per commit.
    const std::size_t burst = static_cast<std::size_t>(std::clamp(
        std::lround(ops_per_commit), 1L, 64L));
    Tracer rt_tracer(1u << 20);
    replay.run(65536, burst, &rt_tracer, report);
    report.note("replay_burst", std::to_string(burst));
    const std::vector<Span>& sp = rt_tracer.spans();
    const std::vector<double> self = self_times_ns(sp);
    L["service.parse_us"] = self_us(sp, self, kSpanParse).value;
    L["service.encode_us"] = self_us(sp, self, kSpanEncode).value;
    L["map.get_us"] = self_us(sp, self, kSpanMapGet).value;
    L["map.put_in_tx_us"] = self_us(sp, self, kSpanMapPut).value;
    L["pmemkit.commit_us"] = self_us(sp, self, kSpanCommit).value;
    L["tierkv.get_hit_us"] = self_us(sp, self, kSpanTierHit).value;
    L["tierkv.get_miss_us"] = self_us(sp, self, kSpanTierMiss).value;
    L["tierkv.put_in_tx_us"] = self_us(sp, self, kSpanTierPut).value;
    std::vector<double> replay_req = replay.stats.request_us;
    L["service.wire_residual_us"] =
        tp.all_p50_us - percentile(replay_req, 0.5).value;

    // Spans out: every replay span, and the first 200k wire spans.
    std::vector<Span> all = rt_tracer.spans();
    const std::size_t keep = std::min<std::size_t>(wire_tracer.spans().size(),
                                                   200000);
    const std::int32_t base = static_cast<std::int32_t>(all.size());
    for (std::size_t i = 0; i < keep; ++i) {
      Span s = wire_tracer.spans()[i];
      if (s.parent >= 0) s.parent += base;
      all.push_back(s);
    }
    write_spans(opt.trace_dir / (shape.name + "-seed" +
                                 std::to_string(opt.seed) + ".spans.jsonl"),
                all, kSpanNames, report);
  }
  live.rt.reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench

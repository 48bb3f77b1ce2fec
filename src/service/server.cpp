#include "service/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <utility>

#include "api/translate.hpp"
#include "numakit/affinity.hpp"
#include "pmemkit/faultkit.hpp"
#include "service/durable_map.hpp"
#include "service/net_fault.hpp"
#include "service/resp.hpp"
#include "tierkv/cache.hpp"

namespace cxlpmem::service {

namespace {

/// fnv1a64 — shard routing hash.  The map's buckets must not use FNV-1a
/// too: an FNV-1a hash's low bits follow from the low bits of its basis and
/// of the key, so bucket and shard would correlate and each shard would
/// fill only a fraction of its buckets.  The map buckets by fingerprint64.
std::uint64_t shard_hash(std::string_view key) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : key)
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

/// Fixed three decimals, locale-proof (std::to_string(double) honours the
/// C locale's decimal point; the wire format must not).  Unbounded above:
/// compression ratios exceed 1.
std::string format_fixed3(double v) {
  if (v < 0) v = 0;
  const auto milli = static_cast<std::uint64_t>(v * 1000.0 + 0.5);
  std::string frac = std::to_string(milli % 1000);
  frac.insert(0, 3 - frac.size(), '0');
  return std::to_string(milli / 1000) + "." + frac;
}

/// Fragmentation ratio as "0.042" — a proper ratio, clamped to [0, 1].
std::string format_frag(double f) {
  return format_fixed3(f < 0 ? 0 : (f > 1 ? 1 : f));
}

/// Writes all of `bytes` to a nonblocking socket, polling through short
/// stalls.  Bounded: a client that stops reading for ~5s is declared dead
/// rather than wedging a shard worker forever.
bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  int stalls = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        net_send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      stalls = 0;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (++stalls > 50) return false;
      struct pollfd p = {fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    return false;  // EPIPE / ECONNRESET / shutdown underneath us
  }
  return true;
}

/// One client socket.  The parser and seq counter are event-thread-only;
/// the sequencer state below `mu` is shared with shard workers, which
/// deliver replies out of request order (a pipelined burst fans out across
/// shards) — `done` holds completed replies until their turn on the wire.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    net_fault_forget_fd(fd);
    ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  RespParser parser;
  std::uint64_t next_seq = 0;

  std::mutex mu;
  std::uint64_t next_to_send = 0;
  std::map<std::uint64_t, std::string> done;
  bool dead = false;
};

/// Sequenced reply delivery: stash, then flush the contiguous prefix.
void complete(Connection& c, std::uint64_t seq, std::string reply) {
  const std::lock_guard<std::mutex> lock(c.mu);
  c.done.emplace(seq, std::move(reply));
  std::string out;
  auto it = c.done.begin();
  while (it != c.done.end() && it->first == c.next_to_send) {
    out += it->second;
    it = c.done.erase(it);
    ++c.next_to_send;
  }
  if (out.empty() || c.dead) return;
  if (!send_all(c.fd, out)) c.dead = true;
}

struct Request {
  std::shared_ptr<Connection> conn;
  std::uint64_t seq = 0;
  Command cmd;
};

struct Shard {
  explicit Shard(int idx) : index(idx) {}

  const int index;
  /// pool/map/tier are built by open_shard and torn down by close_shard, so
  /// quarantine recovery can rebuild them in place.  The serving worker
  /// touches them lock-free (it is the only thread that replaces them, and
  /// only while quarantined); the info thread takes `pool_mu` because its
  /// stats reads race the recovery teardown.
  std::optional<api::Pool> pool;
  std::optional<DurableMap> map;
  /// Declared after `map` so it is destroyed first: the tier points at the
  /// map.  Null when the tier is disabled: the untiered fast path stays
  /// untouched.
  std::unique_ptr<tierkv::TieredCache> tier;
  mutable std::mutex pool_mu;
  int core = -1;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Request> q;
  std::thread worker;

  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> keys{0};
  std::atomic<std::uint64_t> compactions{0};
  std::atomic<std::uint64_t> compacted_bytes{0};

  // --- health ---
  std::atomic<bool> quarantined{false};
  std::atomic<std::uint64_t> quarantines{0};
  std::atomic<std::uint64_t> rejoins{0};
  std::atomic<std::uint64_t> reopen_failures{0};
  std::atomic<std::uint64_t> shed{0};
};

/// The two Errc values that mean "the media under this shard failed" —
/// exactly the conditions the self-healing loop quarantines on.  Everything
/// else (OutOfSpace, TxFailure, Protocol, ...) is an answer, not an outage.
bool media_failure(api::Errc c) noexcept {
  return c == api::Errc::PoolCorrupt || c == api::Errc::IoFailure;
}

/// The reply every request on a quarantining shard gets: typed Unavailable
/// (retryable — the shard is about to attempt recovery) carrying the
/// original media error for the log-readers.
std::string quarantine_reply(const Shard& s, const api::Error& cause) {
  return encode_error_reply(
      api::Error{api::Errc::Unavailable,
                 "shard " + std::to_string(s.index) +
                     " quarantined: " + cause.message});
}

/// The reply to a request that reaches a shard while it is quarantined:
/// typed Unavailable, retryable once the shard rejoins.
std::string recovering_reply(const Shard& s) {
  return encode_error_reply(
      api::Error{api::Errc::Unavailable,
                 "shard " + std::to_string(s.index) +
                     " quarantined, recovery in progress"});
}

}  // namespace

struct Server::Impl {
  ServerOptions opts;
  api::Runtime* rt = nullptr;  ///< outlives the Server (start() contract)
  std::uint64_t tier_shard_budget = 0;  ///< DRAM budget of each shard tier
  std::string ns;
  int numa_node = -1;
  std::uint16_t port = 0;
  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::filesystem::path> paths;
  std::thread event_thread;
  std::map<int, std::shared_ptr<Connection>> conns;  ///< event thread only

  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  std::atomic<std::uint64_t> accepted{0};
  ServerInfo final_info;  ///< snapshot taken by stop() before teardown

  ~Impl() { stop(); }

  [[nodiscard]] Shard& shard_of(std::string_view key) noexcept {
    return *shards[shard_hash(key) % shards.size()];
  }

  [[nodiscard]] ServerInfo make_info() const {
    ServerInfo out;
    out.ns = ns;
    out.numa_node = numa_node;
    out.connections_accepted = accepted.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      ShardInfo s;
      s.index = static_cast<int>(i);
      s.core = shards[i]->core;
      s.ops = shards[i]->ops.load(std::memory_order_relaxed);
      s.batches = shards[i]->batches.load(std::memory_order_relaxed);
      s.keys = shards[i]->keys.load(std::memory_order_relaxed);
      s.compactions = shards[i]->compactions.load(std::memory_order_relaxed);
      s.compacted_bytes =
          shards[i]->compacted_bytes.load(std::memory_order_relaxed);
      s.quarantined = shards[i]->quarantined.load(std::memory_order_acquire);
      s.quarantines = shards[i]->quarantines.load(std::memory_order_relaxed);
      s.rejoins = shards[i]->rejoins.load(std::memory_order_relaxed);
      s.reopen_failures =
          shards[i]->reopen_failures.load(std::memory_order_relaxed);
      s.shed = shards[i]->shed.load(std::memory_order_relaxed);
      // pool_mu: the recovery loop tears pool/tier down and rebuilds them
      // while this (event-thread) read runs.  A quarantined shard simply
      // reports no pool stats.  O(1) reads only: no heap walk under the
      // lock the worker's recovery path takes.
      const std::lock_guard<std::mutex> pool_lock(shards[i]->pool_mu);
      if (shards[i]->pool) {
        const pmemkit::ObjectPool& pool = shards[i]->pool->pmem();
        s.layout_version = pool.layout_version();
        s.fragmentation = pool.occupancy().fragmentation;
        s.resizes = pool.resizes();
      }
      out.shards.push_back(s);
      if (shards[i]->tier) {
        const tierkv::TierStats t = shards[i]->tier->stats();
        out.tier_stats.hits += t.hits;
        out.tier_stats.misses += t.misses;
        out.tier_stats.promotions += t.promotions;
        out.tier_stats.demotions += t.demotions;
        out.tier_stats.bytes_moved += t.bytes_moved;
        out.tier_stats.raw_bytes += t.raw_bytes;
        out.tier_stats.compressed_bytes += t.compressed_bytes;
        out.tier_stats.dram_bytes_used += t.dram_bytes_used;
        out.tier_stats.dram_bytes_budget += t.dram_bytes_budget;
        out.tier_stats.dram_entries += t.dram_entries;
      }
    }
    out.tier = opts.tier;
    if (opts.tier) out.tier_codec = opts.tier_codec;
    return out;
  }

  [[nodiscard]] std::string info_text() const {
    const ServerInfo i = make_info();
    std::uint64_t keys = 0, ops = 0, batches = 0, resizes = 0;
    std::uint64_t compactions = 0, compacted = 0;
    std::uint64_t quarantined_now = 0, quarantines = 0, rejoins = 0;
    std::uint64_t reopen_failures = 0, shed = 0;
    std::uint32_t layout_version = 0;
    double worst_frag = 0.0;
    std::string per_shard;
    for (const ShardInfo& s : i.shards) {
      keys += s.keys;
      ops += s.ops;
      batches += s.batches;
      resizes += s.resizes;
      compactions += s.compactions;
      compacted += s.compacted_bytes;
      quarantined_now += s.quarantined ? 1 : 0;
      quarantines += s.quarantines;
      rejoins += s.rejoins;
      reopen_failures += s.reopen_failures;
      shed += s.shed;
      layout_version = std::max(layout_version, s.layout_version);
      worst_frag = std::max(worst_frag, s.fragmentation);
      per_shard += "shard" + std::to_string(s.index) +
                   ":core=" + std::to_string(s.core) +
                   ",state=" + (s.quarantined ? "quarantined" : "serving") +
                   ",keys=" + std::to_string(s.keys) +
                   ",ops=" + std::to_string(s.ops) +
                   ",batches=" + std::to_string(s.batches) +
                   ",frag=" + format_frag(s.fragmentation) + "\r\n";
    }
    const std::string health =
        "# Health\r\nhealthy_shards:" +
        std::to_string(i.shards.size() - quarantined_now) +
        "\r\nquarantined_shards:" + std::to_string(quarantined_now) +
        "\r\nquarantines_total:" + std::to_string(quarantines) +
        "\r\nrejoins_total:" + std::to_string(rejoins) +
        "\r\nreopen_failures_total:" + std::to_string(reopen_failures) +
        "\r\nbusy_shed_total:" + std::to_string(shed) + "\r\n";
    return "# cxlpmemd\r\nnamespace:" + i.ns +
           "\r\nnuma_node:" + std::to_string(i.numa_node) +
           "\r\nshards:" + std::to_string(i.shards.size()) +
           "\r\nmax_batch:" + std::to_string(opts.max_batch) +
           "\r\ntcp_port:" + std::to_string(port) +
           "\r\nlayout_version:" + std::to_string(layout_version) +
           "\r\n# Keyspace\r\nkeys:" + std::to_string(keys) +
           "\r\n# Stats\r\nops:" + std::to_string(ops) +
           "\r\nbatches:" + std::to_string(batches) +
           "\r\nconnections_accepted:" + std::to_string(i.connections_accepted) +
           "\r\nfragmentation:" + format_frag(worst_frag) +
           "\r\nresizes:" + std::to_string(resizes) +
           "\r\ncompactions:" + std::to_string(compactions) +
           "\r\ncompacted_bytes:" + std::to_string(compacted) +
           "\r\n" + health + "# Tier\r\n" + tier_text(i) + "# Shards\r\n" +
           per_shard;
  }

  /// The "# Tier" INFO section: one line when the tier is off, the full
  /// telemetry block (summed across shards) when it is on — the same
  /// numbers bench/micro_tierkv plots.
  [[nodiscard]] std::string tier_text(const ServerInfo& i) const {
    if (!i.tier) return "tier:off\r\n";
    const tierkv::TierStats& t = i.tier_stats;
    return "tier:on\r\ntier_codec:" + i.tier_codec +
           "\r\ntier_dram_budget:" + std::to_string(t.dram_bytes_budget) +
           "\r\ntier_dram_used:" + std::to_string(t.dram_bytes_used) +
           "\r\ntier_dram_entries:" + std::to_string(t.dram_entries) +
           "\r\ntier_hits:" + std::to_string(t.hits) +
           "\r\ntier_misses:" + std::to_string(t.misses) +
           "\r\ntier_hit_rate:" + format_fixed3(t.hit_rate()) +
           "\r\ntier_promotions:" + std::to_string(t.promotions) +
           "\r\ntier_demotions:" + std::to_string(t.demotions) +
           "\r\ntier_bytes_moved:" + std::to_string(t.bytes_moved) +
           "\r\ntier_raw_bytes:" + std::to_string(t.raw_bytes) +
           "\r\ntier_compressed_bytes:" + std::to_string(t.compressed_bytes) +
           "\r\ntier_compression_ratio:" +
           format_fixed3(t.compression_ratio()) + "\r\n";
  }

  void route(const std::shared_ptr<Connection>& conn, std::uint64_t seq,
             Command cmd) {
    switch (cmd.verb) {
      case Verb::Ping:
        complete(*conn, seq,
                 cmd.key.empty() ? encode_simple("PONG")
                                 : encode_bulk(cmd.key));
        return;
      case Verb::Info:
        complete(*conn, seq, encode_bulk(info_text()));
        return;
      default: {
        Shard& s = shard_of(cmd.key);
        // A quarantined shard answers from the event thread — its worker
        // is busy recovering and must not grow a queue it cannot drain.
        if (s.quarantined.load(std::memory_order_acquire)) {
          complete(*conn, seq, recovering_reply(s));
          return;
        }
        bool full = false;
        {
          const std::lock_guard<std::mutex> lock(s.mu);
          if (opts.max_queue > 0 &&
              s.q.size() >= static_cast<std::size_t>(opts.max_queue))
            full = true;
          else
            s.q.push_back(Request{conn, seq, std::move(cmd)});
        }
        if (full) {
          // Shed, don't queue: bounded memory and a typed, retryable
          // signal beat an unbounded queue that turns overload into
          // latency collapse.
          s.shed.fetch_add(1, std::memory_order_relaxed);
          complete(*conn, seq,
                   encode_error_reply(api::Error{
                       api::Errc::Busy, "shard " + std::to_string(s.index) +
                                            " queue full, retry later"}));
          return;
        }
        s.cv.notify_one();
        return;
      }
    }
  }

  void accept_clients() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN / listen socket closing
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      struct epoll_event ev = {};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(fd, std::make_shared<Connection>(fd));
      accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void close_conn(int fd) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    conns.erase(fd);  // fd closes once queued requests drop their refs
  }

  /// Reads everything available, then parses and routes complete frames.
  /// Returns false when the connection must close (EOF, error, malformed).
  bool handle_readable(const std::shared_ptr<Connection>& conn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = net_recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) return false;  // orderly EOF
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    RespValue frame;
    for (;;) {
      switch (conn->parser.next(frame)) {
        case RespParser::Status::NeedMore:
          return true;
        case RespParser::Status::Malformed:
          // Report once, then drop the connection: a malformed RESP stream
          // has no resync point.
          complete(*conn, conn->next_seq++,
                   encode_error_reply(api::Error{
                       api::Errc::Protocol, conn->parser.malformed_reason()}));
          return false;
        case RespParser::Status::Value: {
          const std::uint64_t seq = conn->next_seq++;
          api::Result<Command> cmd = parse_command(frame);
          if (!cmd.ok())
            complete(*conn, seq, encode_error_reply(cmd.error()));
          else
            route(conn, seq, std::move(cmd).value());
          break;
        }
      }
    }
  }

  void event_loop() {
    std::array<struct epoll_event, 64> events;
    while (!stopping.load(std::memory_order_acquire)) {
      const int n =
          ::epoll_wait(epoll_fd, events.data(), events.size(), 500);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd) {
          std::uint64_t tickle = 0;
          while (::read(wake_fd, &tickle, sizeof(tickle)) > 0) {
          }
          continue;  // stopping re-checked at the loop head
        }
        if (fd == listen_fd) {
          accept_clients();
          continue;
        }
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 ||
            !handle_readable(it->second))
          close_conn(fd);
      }
    }
  }

  /// Executes one command inside the open unit (see run_unit).  With the
  /// tier on, every command goes through the tier's batch calls, whose
  /// lock the caller holds.
  std::string exec(Shard& s, const Command& cmd) {
    tierkv::TieredCache* t = s.tier.get();
    switch (cmd.verb) {
      case Verb::Get: {
        const std::optional<std::string> v =
            t ? t->get_in_batch(cmd.key) : s.map->get(cmd.key);
        return v.has_value() ? encode_bulk(*v) : encode_null_bulk();
      }
      case Verb::Set:
        if (t)
          t->put_in_tx(cmd.key, cmd.value);
        else
          s.map->put_in_tx(cmd.key, cmd.value);
        return encode_simple("OK");
      case Verb::Del: {
        const bool erased =
            t ? t->erase_in_tx(cmd.key) : s.map->erase_in_tx(cmd.key);
        return encode_integer(erased ? 1 : 0);
      }
      case Verb::Exists: {
        const bool found =
            t ? t->exists_in_batch(cmd.key) : s.map->exists(cmd.key);
        return encode_integer(found ? 1 : 0);
      }
      default:
        return encode_error_reply(
            api::Error{api::Errc::Internal, "unroutable verb"});
    }
  }

  /// Runs requests [b, e) of `batch` as one unit, writing their replies.
  /// The unit is ONE transaction if and only if any request in it mutates
  /// — reads included, so a SET earlier in the unit is visible to a later
  /// GET — and the tier's staged DRAM effects are committed or discarded
  /// with it.  `batches` counts commits only.  The caller holds the tier
  /// lock.
  api::Result<void> run_unit(Shard& s, const std::vector<Request>& batch,
                             std::size_t b, std::size_t e,
                             std::vector<std::string>& replies) {
    const bool mutating = std::any_of(
        batch.begin() + static_cast<std::ptrdiff_t>(b),
        batch.begin() + static_cast<std::ptrdiff_t>(e),
        [](const Request& r) { return mutates(r.cmd.verb); });
    const auto body = [&] {
      for (std::size_t i = b; i < e; ++i) replies[i] = exec(s, batch[i].cmd);
    };
    const api::Result<void> done =
        mutating ? s.pool->run_tx(body) : api::wrap(body);
    if (s.tier) {
      if (done.ok())
        s.tier->commit_staged();
      else
        s.tier->discard_staged();
    }
    if (done.ok() && mutating)
      s.batches.fetch_add(1, std::memory_order_relaxed);
    return done;
  }

  /// Runs one batch and answers every request in it.  Returns true when
  /// the shard surfaced a media failure and must quarantine.
  bool process_batch(Shard& s, std::vector<Request>& batch) {
    std::vector<std::string> replies(batch.size());
    // Requests before `served` keep their replies.  After the first media
    // failure the rest are answered Unavailable without touching the (now
    // suspect) pool again.
    std::size_t served = 0;
    std::optional<api::Error> media;

    // The serve-site fault point: where an injected device error (or
    // stall) enters the batch loop, upstream of the transaction, exactly
    // like a real EIO out of the mapping would.
    const api::Result<void> probe = api::wrap([&] {
      pmemkit::fault_point(pmemkit::FaultSite::Serve,
                           "shard " + std::to_string(s.index));
    });
    if (!probe.ok()) {
      media = probe.error();
    } else {
      // The whole batch is one unit: one lane, one commit fence amortized
      // across the burst.  The tier lock spans every unit of the batch, as
      // the tier's batch API requires.
      const std::unique_lock<std::mutex> tier_lock =
          s.tier ? s.tier->batch_lock() : std::unique_lock<std::mutex>();
      const api::Result<void> whole =
          run_unit(s, batch, 0, batch.size(), replies);
      if (whole.ok()) {
        served = batch.size();
      } else if (media_failure(whole.error().code)) {
        media = whole.error();  // nothing committed: all answer Unavailable
      } else {
        // The batch aborted wholesale (nothing committed).  Rerun each
        // request as its own unit so one poisoned operation (say,
        // OutOfSpace on an oversized SET) fails alone, with a precise
        // error, instead of failing its batchmates.
        for (; served < batch.size(); ++served) {
          const api::Result<void> one =
              run_unit(s, batch, served, served + 1, replies);
          if (one.ok()) continue;
          if (media_failure(one.error().code)) {
            media = one.error();
            break;
          }
          replies[served] = encode_error_reply(one.error());
        }
      }
    }
    if (media)
      for (std::size_t i = served; i < batch.size(); ++i)
        replies[i] = quarantine_reply(s, *media);
    // Stats before acks: a client that reads INFO right after its last
    // reply must see this batch counted.
    s.ops.fetch_add(batch.size(), std::memory_order_relaxed);
    if (s.map) s.keys.store(s.map->size(), std::memory_order_relaxed);
    // Acknowledge only now — the transaction carrying every mutation above
    // has committed, so an acked write survives kill -9 from here on.
    for (std::size_t i = 0; i < batch.size(); ++i)
      complete(*batch[i].conn, batch[i].seq, std::move(replies[i]));
    return media.has_value();
  }

  /// Opportunistic defragmentation between batches: when the shard heap's
  /// fragmentation crosses the configured threshold, run one compaction
  /// pass over the map.  Entirely on the worker thread (the shard's pool is
  /// single-writer), between batches (no request waits on it), and each
  /// relocation is its own crash-atomic transaction — kill -9 mid-pass
  /// loses only not-yet-moved garbage, never data.  The check runs after
  /// every batch, so it reads the heap's O(1) occupancy counters.
  void maybe_compact(Shard& s) {
    if (opts.compact_above <= 0) return;
    const pmemkit::HeapOccupancy occ = s.pool->occupancy();
    if (occ.fragmentation < opts.compact_above ||
        occ.live_bytes < opts.compact_min_live_bytes)
      return;
    // Advisory work: a failed pass (say OutOfSpace scratch allocation)
    // leaves the map intact, so swallow the error and retry after a later
    // batch when the heap may have drained.
    const api::Result<pmemkit::CompactReport> pass =
        api::wrap([&] { return s.map->compact(); });
    if (!pass.ok()) return;
    s.compactions.fetch_add(1, std::memory_order_relaxed);
    s.compacted_bytes.fetch_add(pass.value().moved_bytes,
                                std::memory_order_relaxed);
  }

  /// Serves batches until stop (returns false) or a media failure demands
  /// quarantine (returns true).  The LaneSession lives here, not in
  /// worker_loop, because quarantine recovery closes the pool the lane is
  /// pinned in.
  bool serve_shard(Shard& s) {
    // One pinned undo lane for the serving span: batch commits skip the
    // lane checkout mutex entirely.
    const pmemkit::ObjectPool::LaneSession lane(s.pool->pmem());
    std::vector<Request> batch;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(s.mu);
        s.cv.wait(lock, [&] {
          return !s.q.empty() || stopping.load(std::memory_order_acquire);
        });
        if (s.q.empty()) return false;  // stopping and fully drained
        const std::size_t take =
            std::min(s.q.size(), static_cast<std::size_t>(opts.max_batch));
        batch.assign(std::make_move_iterator(s.q.begin()),
                     std::make_move_iterator(s.q.begin() +
                                             static_cast<std::ptrdiff_t>(take)));
        s.q.erase(s.q.begin(),
                  s.q.begin() + static_cast<std::ptrdiff_t>(take));
      }
      const bool quarantine = process_batch(s, batch);
      batch.clear();
      if (quarantine) return true;
      maybe_compact(s);
    }
  }

  /// Answers every queued request with Unavailable (used while the shard
  /// has no pool: entering quarantine, and permanently quarantined).
  void drain_unavailable(Shard& s) {
    std::deque<Request> pending;
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      pending.swap(s.q);
    }
    for (Request& r : pending) complete(*r.conn, r.seq, recovering_reply(s));
  }

  /// Interruptible backoff: sleeps `ms` on the shard's cv, waking early on
  /// stop().  Returns false when stopping.
  bool backoff_wait(Shard& s, std::uint64_t ms) {
    std::unique_lock<std::mutex> lock(s.mu);
    s.cv.wait_for(lock, std::chrono::milliseconds(ms), [&] {
      return stopping.load(std::memory_order_acquire);
    });
    return !stopping.load(std::memory_order_acquire);
  }

  /// Opens (or creates) the shard's pool and builds its map and tier:
  /// the one path for start() and for every rejoin.
  api::Result<void> open_shard(Shard& s) {
    api::PoolSpec spec;
    spec.file = opts.pool_stem + "-" + std::to_string(s.index) + ".pool";
    spec.size = opts.pool_size_bytes;
    api::Result<api::Pool> pool =
        rt->open_or_create_pool(opts.ns, "cxlpmemd-kv", spec);
    if (!pool.ok()) return pool.error();
    const api::Result<void> built = api::wrap([&] {
      const std::lock_guard<std::mutex> pool_lock(s.pool_mu);
      s.pool.emplace(std::move(pool).value());
      s.map.emplace(s.pool->pmem());  // e.g. TypeMismatch on reopen
      if (opts.tier) {
        tierkv::TierOptions to;
        to.codec = opts.tier_codec;
        to.dram_bytes = tier_shard_budget;
        s.tier = std::make_unique<tierkv::TieredCache>(*s.map, std::move(to));
      }
    });
    if (!built.ok()) {
      close_shard(s);
      return built.error();
    }
    s.keys.store(s.map->size(), std::memory_order_relaxed);
    return {};
  }

  /// Tears the shard down under pool_mu (the info thread reads pool
  /// stats).  Order matters — the tier points at the map, the map into the
  /// pool.  Closing the pool also releases its
  /// mapping, so a reopen gets a fresh view of the (possibly repaired)
  /// media.
  void close_shard(Shard& s) {
    const std::lock_guard<std::mutex> pool_lock(s.pool_mu);
    s.tier.reset();
    s.map.reset();
    s.pool.reset();
  }

  /// The self-healing pass: tear the shard's pool down, then try bounded
  /// reopen-with-recovery attempts with doubling backoff.  Returns true on
  /// rejoin, false when the attempts are exhausted (or stop() arrived).
  bool recover_shard(Shard& s) {
    s.quarantined.store(true, std::memory_order_release);
    s.quarantines.fetch_add(1, std::memory_order_relaxed);
    close_shard(s);
    drain_unavailable(s);  // requests that raced the quarantine flag
    for (int attempt = 0; attempt < opts.reopen_attempts; ++attempt) {
      if (!backoff_wait(s, static_cast<std::uint64_t>(opts.reopen_backoff_ms)
                               << attempt))
        return false;  // stopping — leave the shard down, stop() drains
      if (!open_shard(s).ok()) {
        s.reopen_failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      s.rejoins.fetch_add(1, std::memory_order_relaxed);
      s.quarantined.store(false, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// Terminal state for a shard whose media never came back: answer
  /// Unavailable until stop().  The rest of the server keeps serving.
  void drain_quarantined(Shard& s) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(s.mu);
        s.cv.wait(lock, [&] {
          return !s.q.empty() || stopping.load(std::memory_order_acquire);
        });
        if (s.q.empty()) return;  // stopping and fully drained
      }
      drain_unavailable(s);
    }
  }

  void worker_loop(Shard& s) {
    while (serve_shard(s)) {
      if (!recover_shard(s)) {
        drain_quarantined(s);
        return;
      }
    }
  }

  void stop() {
    if (stopped.exchange(true)) return;
    stopping.store(true, std::memory_order_release);
    // 1. Stop the intake: once the event thread exits, no request can be
    //    enqueued and no byte is read off any socket.
    if (wake_fd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t w = ::write(wake_fd, &one, sizeof(one));
    }
    if (event_thread.joinable()) event_thread.join();
    // 2. Drain: workers finish every queued request — each in-flight
    //    transaction runs to commit (or a clean per-op error) and its
    //    reply is flushed — then exit.
    for (const auto& s : shards) s->cv.notify_all();
    for (const auto& s : shards)
      if (s->worker.joinable()) s->worker.join();
    final_info = make_info();
    // 3. Close client sockets, then the listen/epoll plumbing.
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    listen_fd = epoll_fd = wake_fd = -1;
    // 4. Close the pools — the clean-shutdown mark lands on media, so a
    //    reopen reports zero busy lanes and no recovery work.
    shards.clear();
  }
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() { stop(); }
void Server::stop() { impl_->stop(); }
std::uint16_t Server::port() const noexcept { return impl_->port; }
int Server::shard_count() const noexcept {
  return static_cast<int>(impl_->paths.size());
}
std::vector<std::filesystem::path> Server::pool_paths() const {
  return impl_->paths;
}
ServerInfo Server::info() const {
  return impl_->stopped.load() ? impl_->final_info : impl_->make_info();
}

api::Result<std::unique_ptr<Server>> Server::start(api::Runtime& rt,
                                                   ServerOptions opts) {
  if (opts.shards < 1 || opts.shards > 64)
    return api::Error{api::Errc::InvalidConfig, "shards must be in [1, 64]"};
  if (opts.max_batch < 1)
    return api::Error{api::Errc::InvalidConfig, "max_batch must be >= 1"};
  if (opts.tier && tierkv::find_codec(opts.tier_codec) == nullptr)
    return api::Error{api::Errc::InvalidConfig,
                      "unknown tier codec '" + opts.tier_codec + "'"};
  const api::Result<api::MemorySpace> space = rt.space(opts.ns);
  if (!space.ok()) return space.error();

  // One DRAM budget decision for the whole server, split evenly across
  // shards (hash routing spreads the keyspace evenly too).  0 = ask the
  // placement advisor, sized against the full shard-pool working set.
  std::uint64_t tier_shard_budget = 0;
  if (opts.tier) {
    const std::uint64_t total =
        opts.tier_dram_bytes != 0
            ? opts.tier_dram_bytes
            : tierkv::derive_dram_budget(
                  rt, opts.pool_size_bytes *
                          static_cast<std::uint64_t>(opts.shards));
    tier_shard_budget = std::max<std::uint64_t>(
        total / static_cast<std::uint64_t>(opts.shards), 64 * 1024);
  }

  auto impl = std::make_unique<Impl>();
  impl->opts = opts;
  impl->rt = &rt;
  impl->tier_shard_budget = tier_shard_budget;
  impl->ns = opts.ns;
  impl->numa_node = space.value().numa_node;
  impl->stopped.store(true);  // armed only once the threads exist

  // Shard pools: one file per shard, a disjoint keyspace each.
  for (int i = 0; i < opts.shards; ++i) {
    Shard& shard = *impl->shards.emplace_back(std::make_unique<Shard>(i));
    const api::Result<void> opened = impl->open_shard(shard);
    if (!opened.ok()) return opened.error();
    impl->paths.push_back(shard.pool->pmem().path());
  }

  // Worker placement labels: cores of the namespace's NUMA node (or the
  // nearest node with CPUs — a CXL expander is CPU-less).
  const numakit::NumaTopology& topo = rt.topology();
  const std::vector<simkit::CoreId> cpus = numakit::nearest_cpus(
      topo, topo.node_of_memory(space.value().memory));
  for (int i = 0; i < opts.shards; ++i)
    impl->shards[static_cast<std::size_t>(i)]->core =
        cpus[static_cast<std::size_t>(i) % cpus.size()];

  // Loopback listen socket (ephemeral port when opts.port == 0).
  impl->listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                          SOCK_CLOEXEC, 0);
  if (impl->listen_fd < 0) return io_error("socket", errno);
  int one = 1;
  ::setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts.port);
  if (::bind(impl->listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0)
    return io_error("bind", errno);
  if (::listen(impl->listen_fd, 128) != 0) return io_error("listen", errno);
  socklen_t alen = sizeof(addr);
  if (::getsockname(impl->listen_fd,
                    reinterpret_cast<struct sockaddr*>(&addr), &alen) != 0)
    return io_error("getsockname", errno);
  impl->port = ntohs(addr.sin_port);

  impl->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  impl->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (impl->epoll_fd < 0 || impl->wake_fd < 0)
    return io_error("epoll/eventfd", errno);
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = impl->listen_fd;
  ::epoll_ctl(impl->epoll_fd, EPOLL_CTL_ADD, impl->listen_fd, &ev);
  ev.data.fd = impl->wake_fd;
  ::epoll_ctl(impl->epoll_fd, EPOLL_CTL_ADD, impl->wake_fd, &ev);

  impl->stopped.store(false);
  for (const auto& s : impl->shards) {
    Shard* shard = s.get();
    Impl* self = impl.get();
    s->worker = std::thread([self, shard] { self->worker_loop(*shard); });
  }
  {
    Impl* self = impl.get();
    impl->event_thread = std::thread([self] { self->event_loop(); });
  }
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

}  // namespace cxlpmem::service

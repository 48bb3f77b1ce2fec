// service_server_test — cxlpmemd's engine end to end, in process: an
// embedded Server driven through the Client library over real loopback
// sockets.  Covers the command surface, the spread of each shard map's
// keys over its buckets, >= 8 concurrent connections, pipelined ordering +
// read-your-writes, the per-request fallback after a batch aborts, the
// shard counters across a restart, the refusal of a data dir written
// under another map layout, the error taxonomy over the wire, protocol
// violations, graceful shutdown (drained transactions, zero busy
// lanes on reopen) and the teardown race the TSan job hunts.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/cxlpmem.hpp"
#include "pmemkit/faultkit.hpp"
#include "pmemkit/introspect.hpp"
#include "pmemkit/pool.hpp"
#include "service/client.hpp"
#include "service/durable_map.hpp"
#include "service/server.hpp"

namespace {

namespace fs = std::filesystem;
using namespace cxlpmem;
using service::Client;
using service::RespValue;

class ServiceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("svc-server-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
    ASSERT_TRUE(rt.ok()) << rt.error().to_string();
    rt_ = std::make_unique<api::Runtime>(std::move(rt).value());
  }

  void TearDown() override {
    server_.reset();
    rt_.reset();
    fs::remove_all(dir_);
  }

  void start(service::ServerOptions opts = {}) {
    opts.pool_size_bytes = 16ull << 20;  // light pools for CI
    auto server = service::Server::start(*rt_, opts);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    server_ = std::move(server).value();
  }

  Client connect() {
    auto c = Client::connect(server_->port());
    EXPECT_TRUE(c.ok());
    return std::move(c).value();
  }

  /// The burst the fallback tests send: SET small, five SETs of
  /// incompressible 4 MB values (the 16 MiB test pool holds only two of
  /// them), then GET small.  Another connection's GET holds the shard
  /// worker in an injected stall until all seven requests wait in the
  /// shard's queue; clearing the faults ends the stall, so the whole burst
  /// is one batch, which aborts with OutOfSpace and falls back to one unit
  /// per request.
  std::vector<RespValue> send_out_of_space_burst() {
    const std::vector<std::string>& big = big_values();
    pmemkit::arm_faults(pmemkit::FaultPlan::parse("serve:stall@1+60000"));
    std::thread holder([&] { (void)connect().get("hold"); });
    while (pmemkit::fault_stats()
               .injected[static_cast<int>(pmemkit::FaultKind::Stall)] == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<RespValue> replies;
    std::thread sender([&] {
      Client c = connect();
      c.queue_set("small", "s");
      for (std::size_t i = 0; i < big.size(); ++i)
        c.queue_set("big" + std::to_string(i), big[i]);
      c.queue_get("small");
      auto flushed = c.flush();
      EXPECT_TRUE(flushed.ok()) << flushed.error().to_string();
      if (flushed.ok()) replies = std::move(flushed).value();
    });
    const std::uint64_t burst = big.size() + 2;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(50);
    while (server_->info().shards[0].queued < burst &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server_->info().shards[0].queued, burst);
    pmemkit::clear_faults();
    sender.join();
    holder.join();
    return replies;
  }

  /// What the fallback must deliver for that burst: the small SET and the
  /// GET succeed, every SET answered OK reads back, and the rest fail
  /// alone with OutOfSpace.  Returns how many SETs were answered OK.
  std::size_t check_fallback(const std::vector<RespValue>& replies) {
    const std::vector<std::string>& big = big_values();
    EXPECT_EQ(replies.size(), big.size() + 2);
    if (replies.size() != big.size() + 2) return 0;
    EXPECT_EQ(replies.front().text, "OK");
    EXPECT_EQ(replies.back().text, "s");
    std::size_t ok = 1, out_of_space = 0;
    Client c = connect();
    for (std::size_t i = 0; i < big.size(); ++i) {
      const RespValue& r = replies[i + 1];
      const std::string key = "big" + std::to_string(i);
      if (r.type == RespValue::Type::Error) {
        EXPECT_EQ(service::decode_error_reply(r.text).code,
                  api::Errc::OutOfSpace)
            << key << ": " << r.text;
        ++out_of_space;
        continue;
      }
      EXPECT_EQ(r.text, "OK") << key;
      // Not EXPECT_EQ: a mismatch would print both 4 MB values.
      EXPECT_TRUE(c.get(key).value() == big[i]) << key << " did not read back";
      ++ok;
    }
    EXPECT_GE(out_of_space, 1u) << "the burst fit the pool";
    return ok;
  }

  /// Five incompressible 4,000,000-byte values (lz would shrink repetitive
  /// ones until they fit).
  static const std::vector<std::string>& big_values() {
    static const std::vector<std::string> values = [] {
      std::vector<std::string> out;
      std::uint64_t x = 0x9E3779B97F4A7C15ull;
      for (int v = 0; v < 5; ++v) {
        std::string bytes(4000000, '\0');
        for (std::size_t i = 0; i < bytes.size(); i += sizeof(x)) {
          x ^= x << 13;  // xorshift64
          x ^= x >> 7;
          x ^= x << 17;
          std::memcpy(&bytes[i], &x, std::min(sizeof(x), bytes.size() - i));
        }
        out.push_back(std::move(bytes));
      }
      return out;
    }();
    return values;
  }

  fs::path dir_;
  std::unique_ptr<api::Runtime> rt_;
  std::unique_ptr<service::Server> server_;
};

TEST_F(ServiceServerTest, CommandSurface) {
  start();
  Client c = connect();

  EXPECT_EQ(c.ping().value(), "PONG");
  EXPECT_EQ(c.ping("echo").value(), "echo");

  ASSERT_TRUE(c.set("greeting", "hello").ok());
  EXPECT_EQ(c.get("greeting").value().value(), "hello");
  EXPECT_FALSE(c.get("missing").value().has_value());  // null bulk

  EXPECT_TRUE(c.exists("greeting").value());
  EXPECT_TRUE(c.del("greeting").value());
  EXPECT_FALSE(c.del("greeting").value());  // second DEL: 0
  EXPECT_FALSE(c.exists("greeting").value());

  const std::string info = c.info().value();
  EXPECT_NE(info.find("# cxlpmemd"), std::string::npos);
  EXPECT_NE(info.find("namespace:pmem2"), std::string::npos);
  EXPECT_NE(info.find("shards:4"), std::string::npos);
  // Pool-evolution telemetry: the layout generation being served plus the
  // fragmentation / resize / compaction counters.
  EXPECT_NE(info.find("layout_version:2"), std::string::npos);
  EXPECT_NE(info.find("fragmentation:"), std::string::npos);
  EXPECT_NE(info.find("resizes:"), std::string::npos);
  EXPECT_NE(info.find("compactions:"), std::string::npos);
}

TEST_F(ServiceServerTest, BackgroundCompactionTriggersOnChurnedShard) {
  // One shard so every key lands in the same pool; an eager threshold and
  // no live-bytes floor so the post-batch sweep fires as soon as the churn
  // below fragments the heap.
  service::ServerOptions opts;
  opts.shards = 1;
  opts.compact_above = 0.05;
  opts.compact_min_live_bytes = 0;
  start(opts);
  Client c = connect();

  // Fill with values big enough to occupy run blocks, then delete most —
  // the classic churn that strands nearly-empty chunks.
  const std::string value(4000, 'x');
  for (int i = 0; i < 400; ++i)
    ASSERT_TRUE(c.set("churn" + std::to_string(i), value).ok());
  for (int i = 0; i < 400; ++i) {
    if (i % 5 != 0) {
      ASSERT_TRUE(c.del("churn" + std::to_string(i)).ok());
    }
  }
  // One more batch so the worker runs its between-batches sweep after the
  // deletions have landed.
  ASSERT_TRUE(c.set("after", "v").ok());

  const service::ServerInfo info = server_->info();
  ASSERT_EQ(info.shards.size(), 1u);
  EXPECT_GT(info.shards[0].compactions, 0u)
      << "fragmentation=" << info.shards[0].fragmentation;

  // The survivors are intact after compaction moved them around.
  for (int i = 0; i < 400; i += 5)
    EXPECT_EQ(c.get("churn" + std::to_string(i)).value().value(), value);
  EXPECT_NE(c.info().value().find("compactions:"), std::string::npos);
}

TEST_F(ServiceServerTest, ValuesArePartitionedAcrossShardPools) {
  start();
  Client c = connect();
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(c.set("key" + std::to_string(i), "v").ok());
  const service::ServerInfo info = server_->info();
  ASSERT_EQ(info.shards.size(), 4u);
  std::uint64_t total = 0;
  int populated = 0;
  for (const service::ShardInfo& s : info.shards) {
    total += s.keys;
    populated += s.keys > 0 ? 1 : 0;
    EXPECT_GE(s.core, 0);  // numakit placement label assigned
  }
  EXPECT_EQ(total, 64u);
  EXPECT_GE(populated, 2) << "64 keys all hashed into one shard?";
}

// Every key in a shard has the same router hash (fnv1a64 % 4), so the
// shard's map must bucket by a hash independent of it.  4096 keys put about
// n = 1024 in each shard; thrown uniformly into B buckets they leave
// B(1 - (1 - 1/B)^n) non-empty (~906 of 4093, ~251 of 256).  A placement
// that reaches a quarter of the buckets, as one sharing the router's low
// bits did, fills far less than 95% of that.
TEST_F(ServiceServerTest, ShardMapsSpreadKeysOverTheirBuckets) {
  start();
  Client c = connect();
  for (int i = 0; i < 4096; i += 64) {
    for (int j = i; j < i + 64; ++j)
      c.queue_set("key" + std::to_string(j), "v");
    ASSERT_TRUE(c.flush().ok());
  }
  const std::vector<fs::path> paths = server_->pool_paths();
  server_.reset();
  ASSERT_EQ(paths.size(), 4u);
  using Root = service::DurableMap::Root;
  const double buckets = service::DurableMap::bucket_count();
  for (const fs::path& p : paths) {
    auto pool = pmemkit::ObjectPool::open(p, "cxlpmemd-kv");
    const auto* root = static_cast<const Root*>(pool->direct(
        pool->root_raw(sizeof(Root), api::type_number<Root>())));
    int used = 0;
    for (const auto& head : root->buckets) used += head.get().is_null() ? 0 : 1;
    const double keys = static_cast<double>(root->count);
    const double uniform = buckets * (1 - std::pow(1 - 1 / buckets, keys));
    EXPECT_GE(used, 0.95 * uniform) << p << ": " << keys << " keys";
  }
}

// A data dir written while the map had 256 buckets holds shard pools whose
// root is smaller than this build's.  start() must fail with the map's
// refusal, not serve an empty map in place of the old keys.
TEST_F(ServiceServerTest, StartRefusesAShardPoolOfAnotherBucketLayout) {
  {
    api::PoolSpec spec;
    spec.file = "kvshard-0.pool";
    spec.size = 16ull << 20;
    auto pool = rt_->create_pool("pmem2", "cxlpmemd-kv", spec);
    ASSERT_TRUE(pool.ok()) << pool.error().to_string();
    service::BasicDurableMap<256>(pool.value().pmem()).put("city", "zurich");
  }
  service::ServerOptions opts;
  opts.pool_size_bytes = 16ull << 20;
  auto server = service::Server::start(*rt_, opts);
  ASSERT_FALSE(server.ok()) << "served a shard pool of another layout";
  EXPECT_NE(server.error().message.find("different bucket layout"),
            std::string::npos)
      << server.error().to_string();
}

TEST_F(ServiceServerTest, EightConcurrentConnections) {
  start();
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t)
    threads.emplace_back([&, t] {
      auto conn = Client::connect(server_->port());
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      Client c = std::move(conn).value();
      for (int i = 0; i < 50; ++i) {
        const std::string key =
            "c" + std::to_string(t) + "/k" + std::to_string(i);
        if (!c.set(key, "v" + std::to_string(i)).ok() ||
            c.get(key).value_or(std::nullopt) != "v" + std::to_string(i))
          failures.fetch_add(1);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->info().connections_accepted, 8u);
}

TEST_F(ServiceServerTest, PipelinedBurstKeepsOrderAndReadsItsWrites) {
  start();
  Client c = connect();
  // SET k v1 / GET k / SET k v2 / GET k — the replies must come back in
  // request order, and each GET must see the SET queued before it even
  // though the whole burst may fold into one transaction.
  c.queue_set("k", "v1");
  c.queue_get("k");
  c.queue_set("k", "v2");
  c.queue_get("k");
  for (int i = 0; i < 64; ++i) c.queue_set("fill" + std::to_string(i), "x");
  const auto replies = c.flush();
  ASSERT_TRUE(replies.ok()) << replies.error().to_string();
  ASSERT_EQ(replies.value().size(), 68u);
  EXPECT_EQ(replies.value()[0].text, "OK");
  EXPECT_EQ(replies.value()[1].text, "v1");
  EXPECT_EQ(replies.value()[3].text, "v2");
  for (std::size_t i = 4; i < replies.value().size(); ++i)
    EXPECT_EQ(replies.value()[i].text, "OK");

  std::uint64_t ops = 0, batches = 0;
  for (const service::ShardInfo& s : server_->info().shards) {
    ops += s.ops;
    batches += s.batches;
  }
  EXPECT_EQ(ops, 68u);
  EXPECT_GE(batches, 1u);
}

// A batch that aborts on OutOfSpace reruns each request as its own unit:
// the requests that fit still commit, the rest fail alone.
TEST_F(ServiceServerTest, PerRequestFallbackIsolatesOutOfSpace) {
  service::ServerOptions opts;
  opts.shards = 1;
  start(opts);
  check_fallback(send_out_of_space_burst());
}

// The same fallback through the tier: its staging is discarded with the
// aborted batch and committed with each unit that fits.
TEST_F(ServiceServerTest, TieredPerRequestFallbackIsolatesOutOfSpace) {
  service::ServerOptions opts;
  opts.shards = 1;
  opts.tier = true;
  opts.tier_dram_bytes = 1 << 20;
  start(opts);
  check_fallback(send_out_of_space_burst());
}

// `batches` counts committed transactions: in the fallback that is one per
// SET answered OK, and the GET, which commits nothing, adds none.
TEST_F(ServiceServerTest, BatchesCountsCommittedUnitsOnly) {
  service::ServerOptions opts;
  opts.shards = 1;
  start(opts);
  const std::vector<RespValue> replies = send_out_of_space_burst();
  const std::uint64_t batches = server_->info().shards[0].batches;
  EXPECT_EQ(batches, check_fallback(replies));
}

// A restarted server reports its keys before serving any request.
TEST_F(ServiceServerTest, KeysAreCountedAtOpen) {
  start();
  {
    Client c = connect();
    for (int i = 0; i < 40; ++i)
      ASSERT_TRUE(c.set("key" + std::to_string(i), "v").ok());
  }
  server_->stop();
  server_.reset();
  start();
  std::uint64_t keys = 0;
  for (const service::ShardInfo& s : server_->info().shards) keys += s.keys;
  EXPECT_EQ(keys, 40u);
  EXPECT_NE(connect().info().value().find("\r\nkeys:40\r\n"),
            std::string::npos);
}

TEST_F(ServiceServerTest, ErrorTaxonomyCrossesTheWire) {
  start();
  Client c = connect();
  // Unknown command: Errc::Protocol, and the connection stays usable (the
  // frame itself was well-formed).
  c.queue({"FLUSHALL"});
  const auto replies = c.flush();
  ASSERT_TRUE(replies.ok());
  ASSERT_EQ(replies.value()[0].type, RespValue::Type::Error);
  EXPECT_EQ(service::decode_error_reply(replies.value()[0].text).code,
            api::Errc::Protocol);
  EXPECT_EQ(c.ping().value(), "PONG");

  // Oversized key: rejected at the command layer, connection survives.
  c.queue({"SET", std::string(service::kMaxKeyBytes + 1, 'k'), "v"});
  const auto big = c.flush();
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(big.value()[0].type, RespValue::Type::Error);
  EXPECT_EQ(service::decode_error_reply(big.value()[0].text).code,
            api::Errc::Protocol);
  EXPECT_TRUE(c.set("sane", "v").ok());
}

TEST_F(ServiceServerTest, MalformedStreamGetsErrorThenClose) {
  start();
  // A raw socket, because the Client cannot be coaxed into sending a
  // malformed frame: a hostile bulk header must draw one protocol error
  // and then EOF.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string evil = "$999999999999\r\n";
  ASSERT_EQ(::send(fd, evil.data(), evil.size(), 0),
            static_cast<ssize_t>(evil.size()));
  std::string got;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // server closed after reporting
    got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0], '-');
  EXPECT_NE(got.find("protocol"), std::string::npos);
}

TEST_F(ServiceServerTest, GracefulShutdownDrainsLanesAndPools) {
  start();
  // Leave a pipelined burst in flight while stop() runs: stop must drain
  // every accepted request through commit before closing the pools.
  Client c = connect();
  std::thread pusher([&] {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 32; ++i)
        c.queue_set("r" + std::to_string(round) + "/k" + std::to_string(i),
                    "v");
      if (!c.flush().ok()) return;  // server began shutting down
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const std::vector<fs::path> paths = server_->pool_paths();
  server_->stop();
  server_->stop();  // idempotent
  pusher.join();
  server_.reset();

  // Every shard pool must reopen without recovery work (the drain closed
  // them cleanly — recovered() is the clean-shutdown witness, since
  // inspect() on an open pool always reads the flag as dirty), with zero
  // busy lanes and a consistent heap.
  ASSERT_EQ(paths.size(), 4u);
  for (const fs::path& p : paths) {
    auto pool = pmemkit::ObjectPool::open(p, "cxlpmemd-kv");
    EXPECT_FALSE(pool->recovered())
        << p << ": reopen needed recovery — shutdown was not clean";
    const pmemkit::PoolReport report = pmemkit::inspect(*pool);
    EXPECT_TRUE(report.busy_lanes.empty()) << p;
    EXPECT_EQ(report.lanes_in_flight, 0u) << p;
    EXPECT_TRUE(report.consistent) << p << "\n" << pmemkit::to_text(report);
  }
}

// The tiered DRAM front-end, through the full wire path: the command
// surface must be indistinguishable from the untiered server, while INFO
// (both the struct and the text form a real client parses) reports the
// tier telemetry.
TEST_F(ServiceServerTest, TieredServerServesAndReportsTelemetry) {
  service::ServerOptions opts;
  opts.tier = true;
  opts.tier_codec = "lz";
  opts.tier_dram_bytes = 256 * 1024;  // small enough to force evictions
  start(opts);
  Client c = connect();

  // Compressible values (the LLM KV-block shape), enough of them to spill
  // the DRAM tier; re-read a few so hits and misses both accrue.
  std::string value;
  while (value.size() < 4096) value += "token-run token-run ";
  for (int i = 0; i < 128; ++i)
    ASSERT_TRUE(c.set("blk" + std::to_string(i), value).ok());
  for (int round = 0; round < 3; ++round)
    for (int i = 0; i < 128; i += 7)
      EXPECT_EQ(c.get("blk" + std::to_string(i)).value().value(), value);
  EXPECT_TRUE(c.exists("blk0").value());
  EXPECT_TRUE(c.del("blk0").value());
  EXPECT_FALSE(c.get("blk0").value().has_value());

  // The struct form: aggregated tier stats with the codec paying for
  // itself on these values.
  const service::ServerInfo info = server_->info();
  EXPECT_TRUE(info.tier);
  EXPECT_EQ(info.tier_codec, "lz");
  EXPECT_GT(info.tier_stats.hits + info.tier_stats.misses, 0u);
  EXPECT_GT(info.tier_stats.raw_bytes, 0u);
  EXPECT_LT(info.tier_stats.compressed_bytes, info.tier_stats.raw_bytes);
  EXPECT_GT(info.tier_stats.dram_bytes_budget, 0u);

  // The wire form: every field of the "# Tier" section must round-trip
  // through the client, with the on/off flag and codec spelled out.
  const std::string text = c.info().value();
  EXPECT_NE(text.find("# Tier"), std::string::npos);
  EXPECT_NE(text.find("tier:on"), std::string::npos);
  EXPECT_NE(text.find("tier_codec:lz"), std::string::npos);
  for (const char* field :
       {"tier_dram_budget:", "tier_dram_used:", "tier_dram_entries:",
        "tier_hits:", "tier_misses:", "tier_hit_rate:", "tier_promotions:",
        "tier_demotions:", "tier_bytes_moved:", "tier_raw_bytes:",
        "tier_compressed_bytes:", "tier_compression_ratio:"})
    EXPECT_NE(text.find(field), std::string::npos) << field;
}

TEST_F(ServiceServerTest, UntieredServerReportsTierOff) {
  start();
  Client c = connect();
  const std::string text = c.info().value();
  EXPECT_NE(text.find("tier:off"), std::string::npos);
  EXPECT_EQ(text.find("tier_codec:"), std::string::npos);
  EXPECT_FALSE(server_->info().tier);
}

TEST_F(ServiceServerTest, TieredServerRejectsUnknownCodec) {
  service::ServerOptions opts;
  opts.tier = true;
  opts.tier_codec = "zstd";
  opts.pool_size_bytes = 16ull << 20;
  const auto server = service::Server::start(*rt_, opts);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.error().code, api::Errc::InvalidConfig);
}

// Pipelined read-your-writes through the tier's staged batch path: the
// same burst shape the untiered test covers, but now the GETs are served
// by TieredCache::get_in_batch against staged, not-yet-committed SETs.
TEST_F(ServiceServerTest, TieredPipelinedBurstReadsItsWrites) {
  service::ServerOptions opts;
  opts.tier = true;
  opts.tier_dram_bytes = 1 << 20;
  start(opts);
  Client c = connect();
  c.queue_set("k", "v1");
  c.queue_get("k");
  c.queue_set("k", "v2");
  c.queue_get("k");
  c.queue({"DEL", "k"});
  c.queue_get("k");
  const auto replies = c.flush();
  ASSERT_TRUE(replies.ok()) << replies.error().to_string();
  ASSERT_EQ(replies.value().size(), 6u);
  EXPECT_EQ(replies.value()[1].text, "v1");
  EXPECT_EQ(replies.value()[3].text, "v2");
  EXPECT_EQ(replies.value()[5].type, RespValue::Type::Null);
}

// The registry-churn pattern from the pool tests, lifted to the service:
// clients hammer the full wire path, and another thread reads
// Server::info(), while the server tears down under them.  Run under TSan
// in CI; the assertion here is "no crash, no hang, failures surface as
// clean IoFailure results".
TEST_F(ServiceServerTest, TeardownRaceWithConcurrentClients) {
  start();
  const std::uint16_t port = server_->port();
  std::atomic<bool> go{false};
  std::atomic<bool> stopped{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    while (!stopped.load()) EXPECT_EQ(server_->info().shards.size(), 4u);
  });
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      auto conn = Client::connect(port);
      if (!conn.ok()) return;
      Client c = std::move(conn).value();
      for (int i = 0; i < 400; ++i) {
        const std::string key = "t" + std::to_string(t) + "/" +
                                std::to_string(i);
        if (!c.set(key, "v").ok()) return;   // server went away: fine
        if (!c.get(key).ok()) return;
      }
    });
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->stop();
  stopped.store(true);
  for (std::thread& t : threads) t.join();
  // Acked writes stayed durable through the race: reopen and verify the
  // pools are whole.
  for (const fs::path& p : server_->pool_paths()) {
    auto pool = pmemkit::ObjectPool::open(p, "cxlpmemd-kv");
    EXPECT_TRUE(pmemkit::inspect(*pool).consistent);
  }
}

}  // namespace

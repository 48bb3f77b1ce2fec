// service_fault_test — the self-healing half of faultkit, end to end: an
// embedded Server with the media injector armed against its serve loop.
//
// The degradation contract under test: a media failure quarantines ONE
// shard (typed Unavailable, never a crash, never a wrong answer), the
// other shards keep serving, the quarantined shard reopens-with-recovery
// and rejoins, and all of it is visible in INFO "# Health".  Overload is
// the same story with Errc::Busy: a full shard queue sheds typed errors,
// not latency.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/cxlpmem.hpp"
#include "pmemkit/faultkit.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

namespace fs = std::filesystem;
namespace pk = cxlpmem::pmemkit;
using namespace cxlpmem;
using service::Client;
using service::RespValue;

class ServiceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("svc-fault-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    pk::clear_faults();
    auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_).build();
    ASSERT_TRUE(rt.ok()) << rt.error().to_string();
    rt_ = std::make_unique<api::Runtime>(std::move(rt).value());
  }

  void TearDown() override {
    pk::clear_faults();
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

  /// Retries `key` until the quarantined shard rejoins (or 5s elapse).
  [[nodiscard]] bool set_until_served(Client& c, const std::string& key) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto r = c.set(key, "v");
      if (r.ok()) return true;
      EXPECT_EQ(r.error().code, api::Errc::Unavailable)
          << r.error().to_string();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  fs::path dir_;
  std::unique_ptr<api::Runtime> rt_;
  std::unique_ptr<service::Server> server_;
};

TEST_F(ServiceFaultTest, HealthSectionReportsCleanOnAFaultlessServer) {
  start();
  Client c = connect();
  const std::string info = c.info().value();
  EXPECT_NE(info.find("# Health"), std::string::npos);
  EXPECT_NE(info.find("healthy_shards:4"), std::string::npos);
  EXPECT_NE(info.find("quarantined_shards:0"), std::string::npos);
  EXPECT_NE(info.find("quarantines_total:0"), std::string::npos);
  EXPECT_NE(info.find("busy_shed_total:0"), std::string::npos);
  EXPECT_NE(info.find("state=serving"), std::string::npos);
  EXPECT_EQ(info.find("state=quarantined"), std::string::npos);
}

TEST_F(ServiceFaultTest, MediaFailureQuarantinesThenRejoins) {
  service::ServerOptions opts;
  opts.shards = 1;  // every key on the shard we are about to poison
  start(opts);
  Client c = connect();

  // Committed before the fault: must survive the quarantine round-trip.
  ASSERT_TRUE(c.set("stable", "pre-fault").ok());

  // One checksum failure in the serve loop.  The shard must answer the
  // poisoned request with typed Unavailable — not crash, not serve corrupt
  // data — then reopen, recover, and rejoin.
  pk::arm_faults(pk::FaultPlan::parse("serve:corrupt@1"));
  const auto poisoned = c.set("victim", "lost-to-media");
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.error().code, api::Errc::Unavailable)
      << poisoned.error().to_string();
  EXPECT_NE(poisoned.error().message.find("quarantined"), std::string::npos);

  // Rejoin: the same connection keeps working once recovery lands.
  ASSERT_TRUE(set_until_served(c, "victim"));
  EXPECT_EQ(c.get("stable").value().value(), "pre-fault");
  EXPECT_EQ(c.get("victim").value().value(), "v");

  // The scar is visible in both telemetry surfaces.
  const service::ServerInfo si = server_->info();
  ASSERT_EQ(si.shards.size(), 1u);
  EXPECT_FALSE(si.shards[0].quarantined);
  EXPECT_EQ(si.shards[0].quarantines, 1u);
  EXPECT_EQ(si.shards[0].rejoins, 1u);

  const std::string info = c.info().value();
  EXPECT_NE(info.find("quarantines_total:1"), std::string::npos);
  EXPECT_NE(info.find("rejoins_total:1"), std::string::npos);
  EXPECT_NE(info.find("healthy_shards:1"), std::string::npos);
}

TEST_F(ServiceFaultTest, HealthyShardsKeepServingDuringQuarantine) {
  service::ServerOptions opts;
  opts.shards = 2;
  opts.reopen_backoff_ms = 500;  // hold the quarantine open long enough
  start(opts);
  Client c = connect();

  pk::arm_faults(pk::FaultPlan::parse("serve:corrupt@1"));
  // Poison whichever shard "h0" routes to.
  const auto poisoned = c.set("h0", "v");
  ASSERT_FALSE(poisoned.ok());
  ASSERT_EQ(poisoned.error().code, api::Errc::Unavailable);

  // While that shard backs off toward its reopen, the other keyspace must
  // answer normally.  16 keys across 2 shards: some land healthy, and
  // every failure must be the quarantined shard's typed Unavailable.
  int served = 0, unavailable = 0;
  for (int i = 0; i < 16; ++i) {
    const auto r = c.set("spread" + std::to_string(i), "v");
    if (r.ok()) {
      ++served;
    } else {
      EXPECT_EQ(r.error().code, api::Errc::Unavailable)
          << r.error().to_string();
      ++unavailable;
    }
  }
  EXPECT_GT(served, 0) << "healthy shard answered nothing";
  EXPECT_GT(unavailable, 0) << "quarantine lifted implausibly fast";

  const std::string info = c.info().value();
  EXPECT_NE(info.find("state=quarantined"), std::string::npos);
  EXPECT_NE(info.find("state=serving"), std::string::npos);
  EXPECT_NE(info.find("healthy_shards:1"), std::string::npos);
  EXPECT_NE(info.find("quarantined_shards:1"), std::string::npos);

  // And the quarantined keyspace comes back.
  EXPECT_TRUE(set_until_served(c, "h0"));
}

TEST_F(ServiceFaultTest, ExhaustedReopensLeaveAPermanentQuarantine) {
  service::ServerOptions opts;
  opts.shards = 1;
  opts.reopen_attempts = 2;
  opts.reopen_backoff_ms = 1;  // fail fast, we want the terminal state
  start(opts);
  Client c = connect();
  ASSERT_TRUE(c.set("doomed", "v").ok());

  // Poison the serve loop AND both reopen attempts: the pool file opens
  // cross FaultSite::MapOpen during recovery, so two open:eio entries eat
  // exactly the two configured attempts.
  pk::arm_faults(pk::FaultPlan::parse("serve:corrupt@1;open:eio@1;open:eio@2"));
  ASSERT_EQ(c.set("doomed", "w").error().code, api::Errc::Unavailable);

  // Recovery is bounded: after both attempts fail the shard parks in
  // permanent quarantine and keeps answering typed Unavailable.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string info;
  while (std::chrono::steady_clock::now() < deadline) {
    info = c.info().value();
    if (info.find("reopen_failures_total:2") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(info.find("reopen_failures_total:2"), std::string::npos) << info;
  EXPECT_NE(info.find("quarantined_shards:1"), std::string::npos);
  EXPECT_NE(info.find("healthy_shards:0"), std::string::npos);
  const api::Error parked = c.set("doomed", "x").error();
  EXPECT_EQ(parked.code, api::Errc::Unavailable);
  // ...and says that it gave up, not that recovery is under way.
  EXPECT_EQ(parked.message.find("recovery in progress"), std::string::npos)
      << parked.message;
  EXPECT_NE(parked.message.find("reopen attempts exhausted"),
            std::string::npos)
      << parked.message;
  // Graceful stop still works with a shard parked in terminal quarantine.
  server_->stop();
}

// A shard in reopen backoff answers at once.  Requests routed to it after
// the quarantine began are answered Unavailable by its worker, which waits
// for parcels only until the next reopen try is due; none may sit in the
// shard's queue through the backoff (and then be served).  The first
// reopen fails, so the shard stays down for 500 + 1000 ms.
TEST_F(ServiceFaultTest, ShardInBackoffAnswersEveryRequestAtOnce) {
  service::ServerOptions opts;
  opts.shards = 1;
  opts.reopen_backoff_ms = 500;
  start(opts);
  pk::arm_faults(pk::FaultPlan::parse("serve:corrupt@1;open:eio@1"));
  Client c = connect();
  ASSERT_EQ(c.set("poison", "v").error().code, api::Errc::Unavailable);
  // Park the shard in its backoff: the worker publishes the quarantine
  // when it closes the pool, then waits 500 ms for the first reopen try.
  while (!server_->info().shards[0].quarantined)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto parked = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kClients = 4, kSets = 32;
  std::vector<std::vector<RespValue>> replies(kClients);
  std::vector<std::chrono::steady_clock::time_point> answered(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      Client cl = connect();
      for (int k = 0; k < kSets; ++k)
        cl.queue_set("c" + std::to_string(i) + ":" + std::to_string(k), "v");
      auto got = cl.flush();
      answered[i] = std::chrono::steady_clock::now();
      ASSERT_TRUE(got.ok()) << got.error().to_string();
      replies[i] = std::move(got).value();
    });
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(replies[i].size(), static_cast<std::size_t>(kSets));
    for (const RespValue& r : replies[i]) {
      ASSERT_EQ(r.type, RespValue::Type::Error) << "client " << i << ": served";
      EXPECT_EQ(service::decode_error_reply(r.text).code,
                api::Errc::Unavailable)
          << r.text;
    }
    EXPECT_LT(answered[i] - parked, std::chrono::milliseconds(500))
        << "client " << i << " waited out the backoff";
  }
  const std::string info = c.info().value();
  EXPECT_NE(info.find("state=quarantined"), std::string::npos) << info;
  EXPECT_NE(info.find(",queued=0\r\n"), std::string::npos) << info;
}

// stop() does not wait out a reopen backoff: the worker's wait for the next
// try wakes on stop() as on a request.  The shard stays down, and info()
// still reads it quarantined once the server has stopped.
TEST_F(ServiceFaultTest, StopDuringALongReopenBackoffReturnsPromptly) {
  service::ServerOptions opts;
  opts.shards = 1;
  opts.reopen_backoff_ms = 20000;
  start(opts);
  pk::arm_faults(pk::FaultPlan::parse("serve:corrupt@1"));
  Client c = connect();
  ASSERT_EQ(c.set("poison", "v").error().code, api::Errc::Unavailable);
  while (!server_->info().shards[0].quarantined)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const auto asked = std::chrono::steady_clock::now();
  server_->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - asked, std::chrono::seconds(2));
  EXPECT_TRUE(server_->info().shards[0].quarantined);
}

// INFO reads the snapshot each worker publishes, never the pool, so it is
// safe while quarantine recovery tears the pool down and rebuilds it.  A
// second thread reads both INFO surfaces in a loop through five
// quarantine -> rejoin cycles.
TEST_F(ServiceFaultTest, InfoStaysConsistentThroughQuarantineCycles) {
  service::ServerOptions opts;
  opts.shards = 1;
  opts.reopen_backoff_ms = 1;
  start(opts);
  // Each SET below crosses the serve site once per attempt: the first
  // attempt of each key meets a corrupt image, the retry after the rejoin
  // is served.
  constexpr int kCycles = 5;
  pk::arm_faults(pk::FaultPlan::parse(
      "serve:corrupt@1;serve:corrupt@3;serve:corrupt@5;serve:corrupt@7;"
      "serve:corrupt@9"));

  std::atomic<bool> done{false};
  int reads = 0;
  std::thread reader([&] {
    Client c = connect();
    std::uint64_t last = 0;
    while (!done.load()) {
      const service::ServerInfo si = server_->info();
      ASSERT_EQ(si.shards.size(), 1u);
      const service::ShardInfo& s = si.shards[0];
      EXPECT_GE(s.quarantines, last);
      if (s.quarantined) {
        EXPECT_EQ(s.layout_version, 0u);
        EXPECT_EQ(s.fragmentation, 0.0);
      }
      last = s.quarantines;

      const auto text = c.info();
      ASSERT_TRUE(text.ok()) << text.error().to_string();
      const std::string& t = text.value();
      const std::string key = "\r\nquarantines_total:";
      const std::size_t at = t.find(key);
      ASSERT_NE(at, std::string::npos) << t;
      const std::uint64_t total = std::stoull(t.substr(at + key.size()));
      EXPECT_GE(total, last);
      last = total;
      const std::size_t line = t.find("\r\nshard0:core=");
      ASSERT_NE(line, std::string::npos) << t;
      const std::string shard = t.substr(line + 2, t.find("\r\n", line + 2) -
                                                       (line + 2));
      EXPECT_NE(shard.find(",queued="), std::string::npos) << shard;
      if (shard.find("state=quarantined") != std::string::npos) {
        EXPECT_NE(shard.find(",frag=0.000,"), std::string::npos) << shard;
      }
      ++reads;
    }
  });

  Client c = connect();
  for (int i = 0; i < kCycles; ++i)
    EXPECT_TRUE(set_until_served(c, "k" + std::to_string(i)));
  done.store(true);
  reader.join();

  const service::ShardInfo s = server_->info().shards[0];
  EXPECT_EQ(s.quarantines, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(s.rejoins, static_cast<std::uint64_t>(kCycles));
  EXPECT_FALSE(s.quarantined);
  EXPECT_GT(reads, kCycles);
}

TEST_F(ServiceFaultTest, FullShardQueueShedsTypedBusy) {
  service::ServerOptions opts;
  opts.shards = 1;
  opts.max_queue = 1;
  start(opts);
  Client c = connect();

  // Stall the worker's first batch for 400ms, then firehose a pipelined
  // burst: the event thread fills the 1-deep queue and must shed the
  // overflow as typed Busy replies — bounded memory, no silent queueing.
  pk::arm_faults(pk::FaultPlan::parse("serve:stall@1+400"));
  for (int i = 0; i < 32; ++i) c.queue_set("burst" + std::to_string(i), "v");
  const auto replies = c.flush();
  ASSERT_TRUE(replies.ok()) << replies.error().to_string();
  ASSERT_EQ(replies.value().size(), 32u);

  int ok = 0, busy = 0;
  for (const RespValue& r : replies.value()) {
    if (r.type == RespValue::Type::Error) {
      const api::Error e = service::decode_error_reply(r.text);
      EXPECT_EQ(e.code, api::Errc::Busy) << e.to_string();
      ++busy;
    } else {
      ++ok;
    }
  }
  EXPECT_GT(ok, 0) << "queued requests must still be served";
  EXPECT_GT(busy, 0) << "overflow must shed, not queue unboundedly";

  pk::clear_faults();
  const service::ServerInfo si = server_->info();
  EXPECT_EQ(si.shards[0].shed, static_cast<std::uint64_t>(busy));
  const std::string info = c.info().value();
  EXPECT_NE(info.find("busy_shed_total:" + std::to_string(busy)),
            std::string::npos);
}

// The worker takes every queued parcel at once but runs it max_batch
// requests at a time, and the requests whose batch has not started still
// count against max_queue.  Eight SETs go in and the first batch of two
// stalls, so six still count; of a second burst of sixteen only two fit
// under max_queue 8, and the rest shed while the backlog is stuck.
TEST_F(ServiceFaultTest, StalledBacklogLargerThanABatchStillSheds) {
  constexpr int kMaxBatch = 2, kMaxQueue = 8, kBacklog = 8, kOverflow = 16;
  service::ServerOptions opts;
  opts.shards = 1;
  opts.max_batch = kMaxBatch;
  opts.max_queue = kMaxQueue;
  start(opts);
  pk::arm_faults(pk::FaultPlan::parse("serve:stall@1+60000"));

  const auto burst = [&](const std::string& prefix, int n, int& ok,
                         int& busy) {
    Client c = connect();
    for (int i = 0; i < n; ++i) c.queue_set(prefix + std::to_string(i), "v");
    const auto replies = c.flush();
    ASSERT_TRUE(replies.ok()) << replies.error().to_string();
    for (const RespValue& r : replies.value()) {
      if (r.type != RespValue::Type::Error) {
        ++ok;
        continue;
      }
      EXPECT_EQ(service::decode_error_reply(r.text).code, api::Errc::Busy)
          << r.text;
      ++busy;
    }
  };
  const auto wait_until = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (!done() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  int backlog_ok = 0, backlog_busy = 0, over_ok = 0, over_busy = 0;
  std::thread backlog(
      [&] { burst("backlog", kBacklog, backlog_ok, backlog_busy); });
  // The first batch stalls; the most it can hold is max_batch.
  const std::uint64_t at_least = kBacklog - kMaxBatch;
  wait_until([&] {
    return pk::fault_stats().injected[static_cast<int>(pk::FaultKind::Stall)] ==
               1 &&
           server_->info().shards[0].queued >= at_least;
  });
  const std::uint64_t waiting = server_->info().shards[0].queued;
  EXPECT_GE(waiting, at_least) << "the taken backlog stopped counting";
  std::thread overflow(
      [&] { burst("overflow", kOverflow, over_ok, over_busy); });
  const std::uint64_t fit =
      kMaxQueue - std::min<std::uint64_t>(waiting, kMaxQueue);
  wait_until(
      [&] { return server_->info().shards[0].shed >= kOverflow - fit; });
  const service::ShardInfo stuck = server_->info().shards[0];
  pk::clear_faults();
  backlog.join();
  overflow.join();

  EXPECT_EQ(backlog_ok, kBacklog);
  EXPECT_EQ(static_cast<std::uint64_t>(over_ok), fit);
  EXPECT_EQ(over_busy, kOverflow - over_ok);
  EXPECT_EQ(stuck.shed, static_cast<std::uint64_t>(over_busy));
  EXPECT_EQ(stuck.queued, static_cast<std::uint64_t>(kMaxQueue));
}

}  // namespace

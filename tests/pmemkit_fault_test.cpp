// pmemkit_fault_test — the media half of faultkit, swept end to end.
//
// The contract under test: every injected media fault surfaces as a TYPED
// error (ErrKind::Io / OutOfSpace / a corrupt-image validation kind) at
// the call site a real failing device would use, leaves no invariant
// damage behind, and a retry with faults cleared succeeds — plus the
// determinism guarantee (same plan + same crossing sequence = same
// injections) that makes chaos failures replayable from their seed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/cxlpmem.hpp"
#include "pmemkit/faultkit.hpp"
#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace api = cxlpmem::api;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kSize = pk::ObjectPool::min_pool_size() * 2;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("faulttest-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    pk::clear_faults();
  }
  void TearDown() override {
    pk::clear_faults();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(FaultTest, ErrnoKindMapsCapacityErrnosToOutOfSpace) {
  EXPECT_EQ(pk::errno_kind(ENOSPC), pk::ErrKind::OutOfSpace);
  EXPECT_EQ(pk::errno_kind(EDQUOT), pk::ErrKind::OutOfSpace);
  EXPECT_EQ(pk::errno_kind(EIO), pk::ErrKind::Io);
  EXPECT_EQ(pk::errno_kind(EFBIG), pk::ErrKind::Io);  // RLIMIT_FSIZE stays Io
}

TEST_F(FaultTest, DslParsesAndRoundTrips) {
  const pk::FaultPlan plan = pk::FaultPlan::parse(
      "create:eio@2; open:flip@1+64 ;resize:enospc@3;recv:reset@4+4096;"
      "random:seed=42,rate=1000,sites=serve|sync,stall=7;"
      "random:seed=9,rate=300,sites=send|recv|connect,stall=5");
  ASSERT_EQ(plan.fixed.size(), 4u);
  EXPECT_EQ(plan.fixed[0].site, pk::FaultSite::MapCreate);
  EXPECT_EQ(plan.fixed[0].kind, pk::FaultKind::Eio);
  EXPECT_EQ(plan.fixed[0].at, 2u);
  EXPECT_EQ(plan.fixed[1].kind, pk::FaultKind::BitFlip);
  EXPECT_EQ(plan.fixed[1].arg, 64u);
  EXPECT_EQ(plan.fixed[2].kind, pk::FaultKind::Enospc);
  EXPECT_EQ(plan.fixed[3].site, pk::FaultSite::Recv);
  EXPECT_EQ(plan.fixed[3].kind, pk::FaultKind::Reset);
  EXPECT_EQ(plan.fixed[3].at, 4u);
  EXPECT_EQ(plan.fixed[3].arg, 4096u);
  ASSERT_EQ(plan.random.size(), 2u);
  EXPECT_EQ(plan.random[0].seed, 42u);
  EXPECT_EQ(plan.random[0].rate_ppm, 1000u);
  EXPECT_EQ(plan.random[0].stall_ms, 7u);
  EXPECT_EQ(plan.random[0].sites,
            (1u << static_cast<int>(pk::FaultSite::Serve)) |
                (1u << static_cast<int>(pk::FaultSite::Sync)));
  EXPECT_EQ(plan.random[1].seed, 9u);
  EXPECT_EQ(plan.random[1].rate_ppm, 300u);
  EXPECT_EQ(plan.random[1].stall_ms, 5u);
  EXPECT_EQ(plan.random[1].sites,
            (1u << static_cast<int>(pk::FaultSite::Send)) |
                (1u << static_cast<int>(pk::FaultSite::Recv)) |
                (1u << static_cast<int>(pk::FaultSite::Connect)));
  // An entry without sites= covers every site.
  EXPECT_EQ(pk::FaultPlan::parse("random:seed=1,rate=5").random.at(0).sites,
            pk::kAllFaultSites);

  // Normalized inverse: parse(to_dsl()) is the identity on the plan.
  const pk::FaultPlan again = pk::FaultPlan::parse(plan.to_dsl());
  EXPECT_EQ(again.to_dsl(), plan.to_dsl());
  EXPECT_EQ(again.fixed.size(), plan.fixed.size());
  ASSERT_EQ(again.random.size(), plan.random.size());
  for (std::size_t i = 0; i < plan.random.size(); ++i) {
    EXPECT_EQ(again.random[i].seed, plan.random[i].seed);
    EXPECT_EQ(again.random[i].rate_ppm, plan.random[i].rate_ppm);
    EXPECT_EQ(again.random[i].sites, plan.random[i].sites);
    EXPECT_EQ(again.random[i].stall_ms, plan.random[i].stall_ms);
  }

  // Random entries split the sites between them: a site two entries name
  // would have two schedules, so parse refuses it.
  EXPECT_THROW((void)pk::FaultPlan::parse(
                   "random:seed=1,rate=5,sites=serve|send;"
                   "random:seed=2,rate=5,sites=recv|send"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse(
                   "random:seed=1,rate=5;random:seed=2,rate=5,sites=sync"),
               std::invalid_argument);
}

TEST_F(FaultTest, DslRejectsMalformedEntries) {
  EXPECT_THROW((void)pk::FaultPlan::parse("bogus:eio@1"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("create:frobnicate@1"),
               std::invalid_argument);
  // Kind/site combinations are validated: flips only tear open-time media,
  // shorts only truncate creates, stalls hit the serve loop and the link.
  EXPECT_THROW((void)pk::FaultPlan::parse("create:flip@1"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("open:enospc@1"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("sync:stall@1"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("create:eio@0"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("random:rate=2000000"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("random:seed=1,bad=2"),
               std::invalid_argument);
}

TEST_F(FaultTest, FixedEntryFiresAtItsExactCrossingOnce) {
  pk::arm_faults(pk::FaultPlan::parse("create:eio@2"));
  EXPECT_NO_THROW(pk::fault_point(pk::FaultSite::MapCreate, "t"));
  try {
    pk::fault_point(pk::FaultSite::MapCreate, "t");
    FAIL() << "second crossing should inject";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::Io);
    EXPECT_NE(std::string(e.what()).find("injected eio"), std::string::npos);
  }
  // One-shot: the third crossing (and the other sites) pass clean.
  EXPECT_NO_THROW(pk::fault_point(pk::FaultSite::MapCreate, "t"));
  EXPECT_NO_THROW(pk::fault_point(pk::FaultSite::MapOpen, "t"));

  const pk::FaultStats st = pk::fault_stats();
  EXPECT_EQ(st.crossings[static_cast<int>(pk::FaultSite::MapCreate)], 3u);
  EXPECT_EQ(st.injected[static_cast<int>(pk::FaultKind::Eio)], 1u);
  EXPECT_EQ(st.injected_total(), 1u);
}

// A stall ends early when the faults are cleared, so a test can hold a
// thread in one until the state it waits for is reached, instead of
// betting on a fixed sleep.
TEST_F(FaultTest, ClearFaultsEndsAStallInProgress) {
  pk::arm_faults(pk::FaultPlan::parse("send:stall@1+60000"));
  std::thread stalled([] { pk::fault_point(pk::FaultSite::Send, "t"); });
  while (pk::fault_stats().injected[static_cast<int>(pk::FaultKind::Stall)] ==
         0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto cleared = std::chrono::steady_clock::now();
  pk::clear_faults();
  stalled.join();
  EXPECT_LT(std::chrono::steady_clock::now() - cleared,
            std::chrono::seconds(5));
}

TEST_F(FaultTest, RandomScheduleIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    pk::FaultPlan plan;
    plan.random.push_back(pk::RandomFaults{.seed = seed, .rate_ppm = 200000});
    pk::arm_faults(plan);  // 20% per crossing
    std::vector<int> fired;
    for (int i = 0; i < 400; ++i) {
      try {
        pk::fault_point(pk::FaultSite::Resize, "det");
        fired.push_back(0);
      } catch (const pk::PoolError& e) {
        fired.push_back(e.kind() == pk::ErrKind::OutOfSpace ? 2 : 1);
      }
    }
    pk::clear_faults();
    return fired;
  };
  const std::vector<int> a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);  // same seed => same injection sequence, kinds included
  EXPECT_NE(a, c);  // different seed => different sequence
  EXPECT_GT(std::count_if(a.begin(), a.end(), [](int v) { return v != 0; }),
            0);
}

TEST_F(FaultTest, TraceModeRecordsCrossingsWithoutInjecting) {
  pk::begin_fault_trace();
  {
    pk::FileResource file(dir_ / "traced.pool");
    pk::FaultyResource res(file);
    auto pool = pk::ObjectPool::create(res, "faults", kSize);
    pool->resize(kSize * 2);
  }
  const std::vector<pk::FaultSite> trace = pk::end_fault_trace();
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace[0], pk::FaultSite::MapCreate);
  EXPECT_NE(std::find(trace.begin(), trace.end(), pk::FaultSite::Resize),
            trace.end());
}

/// The sweep scenario: pool birth, a grow, close, reopen.  Deterministic
/// crossing sequence — the sweep below injects at every one of them.
void run_scenario(const fs::path& p) {
  pk::FileResource file(p);
  pk::FaultyResource res(file);
  {
    auto pool = pk::ObjectPool::create(res, "faults", kSize);
    pool->resize(kSize * 2);
  }
  { auto pool = pk::ObjectPool::open(res, "faults"); }
}

// The crash-sweep recipe applied to media errors: enumerate the
// scenario's fault points by tracing, then re-run it once per crossing
// with an EIO pinned there.  Every run must fail with the typed Io error
// (never an invariant-violation crash), and the retry with faults cleared
// must complete against the same directory state the failure left behind.
TEST_F(FaultTest, SweepInjectsEioAtEveryMediaCallSite) {
  pk::begin_fault_trace();
  run_scenario(dir_ / "trace.pool");
  const std::vector<pk::FaultSite> trace = pk::end_fault_trace();
  ASSERT_GE(trace.size(), 3u);  // create, resize, open at minimum

  std::uint64_t per_site[pk::kFaultSiteCount] = {};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const pk::FaultSite site = trace[i];
    const std::uint64_t crossing = ++per_site[static_cast<int>(site)];
    const fs::path victim =
        dir_ / ("sweep-" + std::to_string(i) + ".pool");
    pk::FaultPlan plan;
    plan.fixed.push_back(
        pk::Fault{site, pk::FaultKind::Eio, crossing, 0});
    pk::arm_faults(plan);
    try {
      run_scenario(victim);
      FAIL() << "crossing " << i << " (" << pk::to_string(site)
             << "@" << crossing << ") did not inject";
    } catch (const pk::PoolError& e) {
      EXPECT_EQ(e.kind(), pk::ErrKind::Io)
          << "crossing " << i << ": " << e.what();
    }
    EXPECT_EQ(pk::fault_stats().injected_total(), 1u);
    pk::clear_faults();
    // Clean retry against whatever the failure left: a failed create left
    // no file (the full scenario reruns), a failed resize/open left a
    // valid image (reopen validates it).
    if (fs::exists(victim)) {
      pk::FileResource survivor(victim);
      EXPECT_NO_THROW((void)pk::ObjectPool::open(survivor, "faults"))
          << "retry after crossing " << i;
    } else {
      EXPECT_NO_THROW(run_scenario(victim)) << "retry after crossing " << i;
    }
  }
}

TEST_F(FaultTest, EnospcAtCreateAndResizeIsTypedOutOfSpace) {
  pk::arm_faults(pk::FaultPlan::parse("create:enospc@1"));
  pk::FileResource file(dir_ / "nospace.pool");
  pk::FaultyResource res(file);
  try {
    (void)pk::ObjectPool::create(res, "faults", kSize);
    FAIL() << "create should inject ENOSPC";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::OutOfSpace);
    EXPECT_NE(std::string(e.what()).find(std::strerror(ENOSPC)),
              std::string::npos)
        << "errno context must ride in the message: " << e.what();
  }

  pk::arm_faults(pk::FaultPlan::parse("resize:enospc@1"));
  auto pool = pk::ObjectPool::create(res, "faults", kSize);
  try {
    pool->resize(kSize * 2);
    FAIL() << "resize should inject ENOSPC";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::OutOfSpace);
  }
  // Injected before any side effect: the pool still works at its old size
  // and the grow succeeds once the "device" has space again.
  pk::clear_faults();
  EXPECT_NO_THROW(pool->resize(kSize * 2));
  EXPECT_EQ(pool->size(), kSize * 2);
}

TEST_F(FaultTest, ShortWriteCreateLeavesNoPartialImage) {
  pk::arm_faults(pk::FaultPlan::parse("create:short@1"));
  pk::FileResource file(dir_ / "short.pool");
  pk::FaultyResource res(file);
  try {
    (void)pk::ObjectPool::create(res, "faults", kSize);
    FAIL() << "create should report the short write";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::Io);
    EXPECT_NE(std::string(e.what()).find("short write"), std::string::npos);
  }
  // The half-written store was removed — a partial image would wedge every
  // retry on PoolExists and fail reopen validation besides.
  EXPECT_FALSE(fs::exists(dir_ / "short.pool"));
  pk::clear_faults();
  EXPECT_NO_THROW((void)pk::ObjectPool::create(res, "faults", kSize));
}

TEST_F(FaultTest, BitFlipOnOpenIsCaughtAndRepairable) {
  const fs::path p = dir_ / "torn.pool";
  pk::FileResource file(p);
  pk::FaultyResource res(file);
  { auto pool = pk::ObjectPool::create(res, "faults", kSize); }

  // Tear one byte of the header (offset 8 — past the magic, inside the
  // checksummed region) on the next open: validation must refuse the
  // image with a typed error, not serve corrupt data.
  pk::arm_faults(pk::FaultPlan::parse("open:flip@1+8"));
  EXPECT_THROW((void)pk::ObjectPool::open(res, "faults"), pk::PoolError);
  pk::clear_faults();

  // A flip is durable damage by design (MAP_SHARED), so recovery is
  // restoring the byte — the injection XORs 0x40, so XOR it back.
  {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(8);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(8);
    f.write(&b, 1);
  }
  EXPECT_NO_THROW((void)pk::ObjectPool::open(res, "faults"));
}

// The facade path: DaxNamespace substitutes FaultyResource automatically
// while faults are armed, so a daemon-style caller sees the typed Errc
// with zero plumbing — and ENOSPC arrives as Errc::OutOfSpace, not
// IoFailure (the satellite taxonomy fix).
TEST_F(FaultTest, FacadeMapsInjectedEnospcToErrcOutOfSpace) {
  auto rt = api::RuntimeBuilder::setup_one().base_dir(dir_ / "rt").build();
  ASSERT_TRUE(rt.ok()) << rt.error().to_string();

  pk::arm_faults(pk::FaultPlan::parse("create:enospc@1"));
  api::PoolSpec spec;
  spec.file = "injected.pool";
  spec.size = kSize;
  const auto failed =
      rt.value().open_or_create_pool("pmem2", "faults", spec);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, api::Errc::OutOfSpace)
      << failed.error().to_string();

  pk::clear_faults();
  const auto retried =
      rt.value().open_or_create_pool("pmem2", "faults", spec);
  EXPECT_TRUE(retried.ok()) << retried.error().to_string();
}

}  // namespace

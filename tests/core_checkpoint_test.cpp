// Tests for the checkpoint/restart store, including exhaustive crash
// injection on the save path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "pmemkit/crash_hook.hpp"
#include "temp_path.hpp"

namespace core = cxlpmem::core;
namespace pk = cxlpmem::pmemkit;
namespace profiles = cxlpmem::simkit::profiles;
namespace fs = std::filesystem;

namespace {

std::vector<std::byte> payload_of(std::uint8_t fill, std::size_t n) {
  return std::vector<std::byte>(n, std::byte{fill});
}

/// Cuts power under `policy`: drops the (shadow-tracked) store without a
/// clean shutdown and replaces its pool file with the crash image.
void crash_store(std::unique_ptr<core::CheckpointStore>& store,
                 pk::CrashPolicy policy, std::uint64_t seed = 0) {
  store->pool().mark_crashed();
  const auto image = store->pool().region().crash_image(policy, seed);
  const fs::path path = store->pool().path();
  store.reset();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = profiles::make_setup_one();
    ns_ = std::make_unique<core::DaxNamespace>(
        "pmem2", dir_.path() / "pmem2", setup_.machine, setup_.cxl, false);
  }

  // Declared first, so it is removed after the namespace closes.
  const TempPath dir_{
      "cptest",
      ::testing::UnitTest::GetInstance()->current_test_info()->name()};
  profiles::SetupOne setup_;
  std::unique_ptr<core::DaxNamespace> ns_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  EXPECT_FALSE(store.has_checkpoint());
  EXPECT_TRUE(store.load().empty());

  const auto p1 = payload_of(0x11, 1000);
  store.save(p1);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.load(), p1);

  const auto p2 = payload_of(0x22, 5000);
  store.save(p2);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.load(), p2);
}

TEST_F(CheckpointTest, SurvivesReopen) {
  const auto p = payload_of(0x33, 2048);
  {
    core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
    store.save(p);
  }
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.load(), p);
}

TEST_F(CheckpointTest, ManyEpochsAlternateSlots) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  for (std::uint8_t e = 1; e <= 20; ++e) {
    store.save(payload_of(e, 100 * e));
    EXPECT_EQ(store.epoch(), e);
    const auto got = store.load();
    ASSERT_EQ(got.size(), 100u * e);
    EXPECT_EQ(got.front(), std::byte{e});
  }
}

TEST_F(CheckpointTest, OversizedPayloadRefused) {
  core::CheckpointStore store(*ns_, "cp.pool", 1024);
  EXPECT_THROW(store.save(payload_of(1, 2048)), pk::PoolError);
  EXPECT_EQ(store.epoch(), 0u);
}

TEST_F(CheckpointTest, LoadIntoIsAllocationFreeAndSizeChecked) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);

  std::vector<std::byte> buf(64, std::byte{0xcd});
  EXPECT_EQ(store.load_into(buf), 0u);      // nothing saved yet
  EXPECT_EQ(buf[0], std::byte{0xcd});       // buffer untouched
  EXPECT_EQ(store.payload_bytes(), 0u);

  const auto p = payload_of(0x66, 3000);
  store.save(p);
  EXPECT_EQ(store.payload_bytes(), 3000u);

  // One buffer reused across epochs — the restart-loop pattern.
  buf.assign(store.max_payload_bytes(), std::byte{0});
  EXPECT_EQ(store.load_into(buf), 3000u);
  EXPECT_TRUE(std::equal(p.begin(), p.end(), buf.begin()));

  store.save(payload_of(0x77, 500));
  EXPECT_EQ(store.load_into(buf), 500u);
  EXPECT_EQ(buf[499], std::byte{0x77});

  // A too-small buffer is refused without partial writes.
  std::vector<std::byte> tiny(100, std::byte{0x01});
  EXPECT_THROW((void)store.load_into(tiny), pk::PoolError);
  EXPECT_EQ(tiny[0], std::byte{0x01});
  EXPECT_EQ(store.load(), payload_of(0x77, 500));  // load() agrees
}

TEST_F(CheckpointTest, EmptyPayloadIsAValidEpoch) {
  core::CheckpointStore store(*ns_, "cp.pool", 1024);
  store.save(payload_of(7, 512));
  store.save({});
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_TRUE(store.load().empty());
  EXPECT_TRUE(store.has_checkpoint());
}

TEST_F(CheckpointTest, VolatileNamespaceNeedsOptIn) {
  core::DaxNamespace pmem0("pmem0", dir_.path() / "pmem0", setup_.machine,
                           setup_.ddr5_socket0, true);
  EXPECT_THROW(core::CheckpointStore(pmem0, "cp.pool", 1024), pk::PoolError);
  EXPECT_NO_THROW(core::CheckpointStore(pmem0, "cp.pool", 1024, true));
}

// --- incremental engine ----------------------------------------------------

TEST_F(CheckpointTest, IncrementalSkipsCleanChunks) {
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16, false, {}, opts);
  EXPECT_EQ(store.chunk_size(), 4096u);

  auto p = payload_of(0x11, 16384);  // 4 chunks
  // Saves 1 and 2 land on slots with no sealed fingerprints: full rewrites.
  core::SaveStats st = store.save(p);
  EXPECT_EQ(st.chunks_total, 4u);
  EXPECT_EQ(st.chunks_written, 4u);
  EXPECT_TRUE(st.full_rewrite);
  st = store.save(p);
  EXPECT_EQ(st.chunks_written, 4u);

  // Save 3 diffs against save 1's sealed slot — identical payload, zero
  // chunks move.
  st = store.save(p);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(st.chunks_written, 0u);
  EXPECT_EQ(st.bytes_written, 0u);
  EXPECT_EQ(store.last_save().chunks_written, 0u);
  EXPECT_EQ(store.load(), p);

  // Dirty exactly one chunk: exactly one chunk moves (vs save 2's slot).
  p[5000] = std::byte{0x99};
  st = store.save(p);
  EXPECT_EQ(st.chunks_written, 1u);
  EXPECT_EQ(st.bytes_written, 4096u);
  EXPECT_EQ(store.load(), p);
  EXPECT_EQ(store.epoch(), 4u);

  // SaveMode::Full ignores the fingerprints but must stay correct.
  st = store.save(p, core::SaveMode::Full);
  EXPECT_EQ(st.chunks_written, 4u);
  EXPECT_TRUE(st.full_rewrite);
  EXPECT_EQ(store.load(), p);
}

// The default chunk is one 4 KiB page: a one-byte change in a 1 MiB
// payload writes exactly that page.
TEST_F(CheckpointTest, DefaultGranularityIsOnePage) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 20);
  EXPECT_EQ(store.chunk_size(), 4096u);

  auto p = payload_of(0x5a, 1 << 20);
  (void)store.save(p);
  (void)store.save(p);
  p[300000] = std::byte{0x5b};
  core::SaveStats st = store.save(p);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(st.chunks_total, 256u);
  EXPECT_EQ(st.chunks_written, 1u);
  EXPECT_EQ(st.bytes_written, 4096u);
  EXPECT_EQ(store.load(), p);

  st = store.save(p, core::SaveMode::Full);
  EXPECT_TRUE(st.full_rewrite);
  EXPECT_EQ(st.chunks_written, 256u);
  EXPECT_EQ(st.bytes_written, p.size());
  EXPECT_EQ(store.load(), p);
}

TEST_F(CheckpointTest, FingerprintsSurviveReopen) {
  const auto p = payload_of(0x42, 20000);
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  {
    core::CheckpointStore store(*ns_, "cp.pool", 1 << 16, false, {}, opts);
    (void)store.save(p);
    (void)store.save(p);
    (void)store.save(p);
  }
  // Reopen requests a DIFFERENT chunk size: the on-media framing wins, and
  // the sealed fingerprints still make the next identical save a no-op.
  core::CheckpointOptions other;
  other.chunk_size = 16384;
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16, false, {}, other);
  EXPECT_EQ(store.chunk_size(), 4096u);
  const core::SaveStats st = store.save(p);
  EXPECT_EQ(st.chunks_written, 0u);
  EXPECT_EQ(store.load(), p);
}

// The fingerprints are written outside the seal transaction, so the save
// itself must make them durable: after a power cut that keeps only what
// was flushed and fenced, an identical save still moves nothing.
TEST_F(CheckpointTest, FingerprintsSurvivePowerCut) {
  const auto p = payload_of(0x42, 20000);
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  pk::PoolOptions popts;
  popts.track_shadow = true;
  auto store = std::make_unique<core::CheckpointStore>(*ns_, "cp.pool",
                                                       1 << 16, false, popts,
                                                       opts);
  (void)store->save(p);
  (void)store->save(p);
  crash_store(store, pk::CrashPolicy::DropUnflushed);

  core::CheckpointStore reopened(*ns_, "cp.pool", 1 << 16, false, {}, opts);
  ASSERT_EQ(reopened.load(), p);
  const core::SaveStats st = reopened.save(p);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(st.chunks_written, 0u);
  EXPECT_EQ(reopened.load(), p);
}

TEST_F(CheckpointTest, ParallelSaveMatchesSerial) {
  core::CheckpointOptions opts;
  opts.chunk_size = 8192;
  opts.threads = 4;
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 20, false, {}, opts);

  auto p = payload_of(0x07, (1 << 20) - 123);
  core::SaveStats st = store.save(p);
  EXPECT_EQ(st.threads_used, 4);
  EXPECT_EQ(store.load(), p);

  (void)store.save(p);
  // Scatter some dirty bytes; the parallel diff must move exactly those
  // chunks and reproduce the payload bit-for-bit.
  for (std::size_t off : {100u, 9000u, 500000u, 1040000u})
    p[off] = std::byte{0xEE};
  st = store.save(p);
  EXPECT_EQ(st.chunks_written, 4u);
  EXPECT_EQ(store.load(), p);
  EXPECT_EQ(store.payload_bytes(), p.size());
}

// A maximally FRAGMENTED dirty pattern (every other page) must still seal
// at page granularity with 16384 table entries: the seal does not undo-log
// the table, so neither its size nor its number of dirty runs is bounded
// by a lane's undo budget.
TEST_F(CheckpointTest, FragmentedDirtyPatternSeals) {
  constexpr std::uint64_t kPayload = 64ull << 20;  // 16384 x 4 KiB chunks
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  core::CheckpointStore store(*ns_, "cp.pool", kPayload, false, {}, opts);
  EXPECT_EQ(store.chunk_size(), 4096u);

  std::vector<std::byte> p(kPayload, std::byte{0x3c});
  (void)store.save(p);
  (void)store.save(p);
  for (std::uint64_t c = 0; c < 16384; c += 2)  // 8192 isolated dirty runs
    p[c * 4096] = std::byte{0x3d};
  const core::SaveStats st = store.save(p);
  EXPECT_EQ(st.chunks_total, 16384u);
  EXPECT_EQ(st.chunks_written, 8192u);
  EXPECT_FALSE(st.full_rewrite);
  EXPECT_EQ(store.load(), p);
}

// Bugfix regression: an untrusted save must clear the fingerprints past
// its payload.  A save crashes after copying chunks 80-99; under eADR every
// store survives, so the slot holds the crashed save's bytes while its
// table still describes the old ones.  300 KiB and 400 KiB slots share a
// heap footprint, so the 300 KiB saves reuse the slot, and the first of
// them (untrusted: the slot is invalid) rewrites entries 0-74 only.  Left
// alone, entries 80-99 would let the final 400 KiB save skip chunks whose
// bytes the crashed save overwrote.
TEST_F(CheckpointTest, CrashedSaveLeavesNoStaleTailFingerprints) {
  constexpr std::uint64_t kMax = 1 << 20;
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;
  pk::PoolOptions popts;
  popts.track_shadow = true;
  auto store = std::make_unique<core::CheckpointStore>(*ns_, "cp.pool", kMax,
                                                       false, popts, opts);
  std::vector<std::byte> original(400 * 1024);
  for (std::size_t i = 0; i < original.size(); ++i)
    original[i] = static_cast<std::byte>(i * 7 + i / 4096);
  (void)store->save(original);
  (void)store->save(original);

  auto changed = original;
  for (std::size_t c = 80; c < 100; ++c)
    changed[c * 4096 + 1] ^= std::byte{0xff};
  pk::set_crash_hook([](std::string_view point) {
    if (point == "ckpt:chunks-done")
      throw pk::CrashInjected{std::string(point)};
  });
  EXPECT_THROW((void)store->save(changed), pk::CrashInjected);
  pk::set_crash_hook({});
  crash_store(store, pk::CrashPolicy::EadrEverythingSurvives);

  core::CheckpointStore reopened(*ns_, "cp.pool", kMax, false, {}, opts);
  ASSERT_EQ(reopened.epoch(), 2u);
  ASSERT_EQ(reopened.load(), original);
  const std::span<const std::byte> prefix(original.data(), 300 * 1024);
  EXPECT_TRUE(reopened.save(prefix).full_rewrite);  // the crashed slot
  EXPECT_FALSE(reopened.save(prefix).full_rewrite);
  EXPECT_FALSE(reopened.save(original).full_rewrite);  // no realloc
  EXPECT_EQ(reopened.load(), original);
}

// Satellite regression: a reused slot must also SHRINK.  The old engine
// only realloc'd when the slot was too small, so one large epoch pinned
// peak capacity forever under sawtooth payload sizes.
TEST_F(CheckpointTest, OversizedSlotsShrinkOnReuse) {
  core::CheckpointStore store(*ns_, "cp.pool", 1 << 16);
  const auto big = payload_of(0xAA, 40000);
  const auto small = payload_of(0xBB, 100);

  (void)store.save(big);
  (void)store.save(big);
  const std::uint64_t peak = store.pool().stats().heap.allocated_bytes;

  (void)store.save(small);
  (void)store.save(small);
  const std::uint64_t after = store.pool().stats().heap.allocated_bytes;
  EXPECT_LT(after + 2 * 40000, peak)
      << "small saves must release the big slots";
  EXPECT_EQ(store.load(), small);

  // And an empty-payload save frees the stale slot outright.
  const std::uint64_t objects = store.pool().stats().heap.object_count;
  (void)store.save({});
  EXPECT_EQ(store.pool().stats().heap.object_count, objects - 1);
  EXPECT_TRUE(store.load().empty());
  EXPECT_EQ(store.load_into({}), 0u);
}

// Crash injection over the save path: after recovery the store holds either
// the old epoch's payload or the new one — never a mix, never a torn size.
TEST_F(CheckpointTest, SaveIsCrashAtomic) {
  // Count pass.
  std::size_t total_points = 0;
  {
    core::CheckpointStore store(*ns_, "count.pool", 4096);
    store.save(payload_of(0xAA, 1000));
    pk::set_crash_hook([&](std::string_view) { ++total_points; });
    store.save(payload_of(0xBB, 2000));
    pk::set_crash_hook({});
  }
  ns_->remove_pool("count.pool");
  ASSERT_GT(total_points, 5u);

  for (std::size_t k = 1; k <= total_points; ++k) {
    const std::string file = "crash-" + std::to_string(k) + ".pool";
    pk::PoolOptions opts;
    opts.track_shadow = true;
    auto store = std::make_unique<core::CheckpointStore>(*ns_, file, 4096,
                                                         false, opts);
    store->save(payload_of(0xAA, 1000));

    std::size_t seen = 0;
    pk::set_crash_hook([&](std::string_view point) {
      if (++seen == k) throw pk::CrashInjected{std::string(point)};
    });
    bool crashed = false;
    try {
      store->save(payload_of(0xBB, 2000));
    } catch (const pk::CrashInjected&) {
      crashed = true;
    }
    pk::set_crash_hook({});
    ASSERT_TRUE(crashed) << "point " << k;

    crash_store(store, pk::CrashPolicy::DropUnflushed);

    core::CheckpointStore reopened(*ns_, file, 4096);
    const auto got = reopened.load();
    if (reopened.epoch() == 1) {
      ASSERT_EQ(got, payload_of(0xAA, 1000)) << "point " << k;
    } else {
      ASSERT_EQ(reopened.epoch(), 2u) << "point " << k;
      ASSERT_EQ(got, payload_of(0xBB, 2000)) << "point " << k;
    }
  }
}

// Exhaustive crash injection over the INCREMENTAL save path: multi-chunk
// payload, third save, power cut at every persistence-ordering point
// (between chunk copies, around the prepare tx, after the table drain,
// around the seal/flip tx).  After recovery the store must hold epoch 2's
// or epoch 3's exact payload — never a torn mix — under both media-loss
// policies and under eADR, where every unflushed copy survives too.
class CheckpointCrashSweep
    : public CheckpointTest,
      public ::testing::WithParamInterface<pk::CrashPolicy> {};

TEST_P(CheckpointCrashSweep, IncrementalSaveIsCrashAtomic) {
  const pk::CrashPolicy policy = GetParam();
  core::CheckpointOptions opts;
  opts.chunk_size = 4096;  // 5 chunks for the 20000-byte payloads

  auto epoch2 = payload_of(0xAA, 20000);
  auto epoch3 = epoch2;
  // Dirty chunks 1 and 4 only — the sweep must cross clean-chunk skips.
  epoch3[5000] = std::byte{0xBB};
  epoch3[19000] = std::byte{0xBC};

  const auto run_saves = [&](core::CheckpointStore& store) {
    (void)store.save(payload_of(0x11, 20000));  // epoch 1
    (void)store.save(epoch2);                   // epoch 2
  };

  // Count pass.
  std::vector<std::string> points;
  {
    core::CheckpointStore store(*ns_, "count.pool", 1 << 16, false, {},
                                opts);
    run_saves(store);
    pk::set_crash_hook(
        [&](std::string_view point) { points.emplace_back(point); });
    (void)store.save(epoch3);
    pk::set_crash_hook({});
  }
  ns_->remove_pool("count.pool");
  const std::size_t total_points = points.size();
  ASSERT_GT(total_points, 10u);  // chunk points + prepare + table + seal tx
  ASSERT_NE(std::find(points.begin(), points.end(), "ckpt:table"),
            points.end());

  for (std::size_t k = 1; k <= total_points; ++k) {
    const std::string file = "crash-" + std::to_string(k) + ".pool";
    pk::PoolOptions popts;
    popts.track_shadow = true;
    auto store = std::make_unique<core::CheckpointStore>(*ns_, file, 1 << 16,
                                                         false, popts, opts);
    run_saves(*store);

    std::size_t seen = 0;
    pk::set_crash_hook([&](std::string_view point) {
      if (++seen == k) throw pk::CrashInjected{std::string(point)};
    });
    bool crashed = false;
    try {
      (void)store->save(epoch3);
    } catch (const pk::CrashInjected&) {
      crashed = true;
    }
    pk::set_crash_hook({});
    ASSERT_TRUE(crashed) << "point " << k;

    crash_store(store, policy, k);

    core::CheckpointStore reopened(*ns_, file, 1 << 16, false, {}, opts);
    const auto got = reopened.load();
    if (reopened.epoch() == 2) {
      ASSERT_EQ(got, epoch2) << "point " << k;
    } else {
      ASSERT_EQ(reopened.epoch(), 3u) << "point " << k;
      ASSERT_EQ(got, epoch3) << "point " << k;
    }
    // The survivor must keep working.  Epoch 1's payload cut to four
    // chunks keeps the slots' heap footprint, so the first save below lands
    // on the slot a crash left invalid without reallocating it, and the
    // full payload then diffs against that slot: the fifth fingerprint must
    // not vouch for bytes the crashed save wrote.
    const auto full = payload_of(0x11, 20000);
    const std::span<const std::byte> shorter(full.data(), 16384);
    (void)reopened.save(shorter);
    (void)reopened.save(shorter);
    ASSERT_FALSE(reopened.save(full).full_rewrite) << "point " << k;
    ASSERT_EQ(reopened.load(), full) << "point " << k;
    // And another incremental save round-trips.
    auto next = got;
    next[100] = std::byte{0xCC};
    (void)reopened.save(next);
    ASSERT_EQ(reopened.load(), next) << "point " << k;
    ns_->remove_pool(file);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CheckpointCrashSweep,
                         ::testing::Values(
                             pk::CrashPolicy::DropUnflushed,
                             pk::CrashPolicy::RandomEvict,
                             pk::CrashPolicy::EadrEverythingSurvives));

}  // namespace

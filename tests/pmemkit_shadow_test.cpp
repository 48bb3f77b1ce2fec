// Tests for the persistence model's crash images — the crash-consistency
// oracle (pmemsan.hpp) — and for how its two readers, crash_image() and the
// PmemSan rules, stay apart.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

class ShadowTest : public ::testing::Test {
 protected:
  ShadowTest()
      : live(1024, std::byte{0}),
        model(live.data(), live.size(), "shadow", /*rules=*/false) {}

  void store(std::size_t off, std::uint8_t value, std::size_t len = 1,
             pk::PmemSan::StoreOrigin origin = pk::PmemSan::StoreOrigin::User) {
    std::memset(live.data() + off, value, len);
    model.on_store(off, len, origin);
  }

  std::vector<std::byte> live;
  pk::PmemSan model;
};

TEST_F(ShadowTest, UnflushedStoreIsLostUnderStrictPolicy) {
  store(0, 0xAA);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0});
}

TEST_F(ShadowTest, FlushWithoutFenceIsStillLost) {
  store(0, 0xAA);
  model.on_flush(0, 1);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0});
}

TEST_F(ShadowTest, FlushPlusFencePersists) {
  store(0, 0xAA);
  model.on_flush(0, 1);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0xAA});
  EXPECT_EQ(model.dirty_lines(), 0u);
}

TEST_F(ShadowTest, FenceOnlyCommitsFlushedLines) {
  store(0, 0xAA);
  store(128, 0xBB);  // a different line
  model.on_flush(0, 1);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0xAA});
  EXPECT_EQ(img[128], std::byte{0});
  EXPECT_EQ(model.dirty_lines(), 1u);
}

TEST_F(ShadowTest, FlushCoversWholeLines) {
  // A store at offset 10 and a flush at offset 60 share the line [0, 64):
  // flushing any byte of the line flushes the line.
  store(10, 0xCC);
  model.on_flush(60, 1);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[10], std::byte{0xCC});
}

TEST_F(ShadowTest, MultiLineRangeFlush) {
  store(0, 0xDD, 256);  // four lines
  model.on_flush(0, 256);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(img[i], std::byte{0xDD});
}

TEST_F(ShadowTest, RandomEvictIsSeedDeterministic) {
  store(0, 0xEE, 512);
  const auto a = model.crash_image(pk::CrashPolicy::RandomEvict, 7);
  const auto b = model.crash_image(pk::CrashPolicy::RandomEvict, 7);
  EXPECT_EQ(a, b);
}

TEST_F(ShadowTest, RandomEvictMayKeepSomeDirtyLines) {
  store(0, 0xEE, 1024);  // 16 dirty lines
  const auto img = model.crash_image(pk::CrashPolicy::RandomEvict, 1);
  int evicted = 0, dropped = 0;
  for (std::size_t line = 0; line < 16; ++line) {
    if (img[line * 64] == std::byte{0xEE})
      ++evicted;
    else
      ++dropped;
  }
  // With 16 lines and a fair coin, both outcomes occur for seed 1.
  EXPECT_GT(evicted, 0);
  EXPECT_GT(dropped, 0);
}

TEST_F(ShadowTest, StoreAfterFenceDirtiesAgain) {
  store(0, 0x11);
  model.on_flush(0, 1);
  model.on_fence();
  store(0, 0x22);
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0x11});  // the fenced value, not the new one
}

TEST_F(ShadowTest, ZeroLengthOpsAreNoops) {
  model.on_store(0, 0, pk::PmemSan::StoreOrigin::User);
  model.on_flush(0, 0);
  model.on_fence();
  EXPECT_EQ(model.dirty_lines(), 0u);
  EXPECT_EQ(model.pending_lines(), 0u);
}

// --- the image and the rules read one model, each its own way ---------------

// A store between a flush and its fence rides the fence: the image holds the
// fence-time bytes and the line is no longer an eviction candidate.  The
// rules still hold the store to a flush of its own (R5 until it gets one).
TEST_F(ShadowTest, StoreBetweenFlushAndFenceRidesTheFence) {
  store(0, 0x11);
  model.on_flush(0, 1);
  store(0, 0x22);
  model.on_fence();
  const auto img = model.crash_image(pk::CrashPolicy::DropUnflushed);
  EXPECT_EQ(img[0], std::byte{0x22});
  EXPECT_EQ(model.dirty_lines(), 0u);
  EXPECT_EQ(model.pending_lines(), 0u);

  std::vector<std::byte> mem(256, std::byte{0});
  pk::PmemSan checked(mem.data(), mem.size(), "rules", /*rules=*/true);
  const auto sink = std::make_shared<pk::CountSink>();
  checked.set_sink(sink);
  mem[0] = std::byte{0x11};
  checked.on_store(0, 1, pk::PmemSan::StoreOrigin::Infra);
  checked.on_flush(0, 1);
  mem[0] = std::byte{0x22};
  checked.on_store(0, 1, pk::PmemSan::StoreOrigin::Infra);
  checked.on_fence();
  EXPECT_EQ(checked.crash_image(pk::CrashPolicy::DropUnflushed)[0],
            std::byte{0x22});
  EXPECT_EQ(checked.verify(), 1u);
  EXPECT_EQ(sink->count(pk::SanRule::DirtyAtClose), 1u);
  checked.on_flush(0, 1);
  checked.on_fence();
  EXPECT_EQ(checked.verify(), 0u);
}

// Infrastructure stores are eviction candidates too: a power cut may leak
// an unflushed log or heap line early, and recovery must cope.
TEST_F(ShadowTest, RandomEvictCanLeakInfraStoredLines) {
  store(0, 0xEE, 1024, pk::PmemSan::StoreOrigin::Infra);  // 16 lines
  const auto img = model.crash_image(pk::CrashPolicy::RandomEvict, 1);
  int evicted = 0, dropped = 0;
  for (std::size_t line = 0; line < 16; ++line) {
    if (img[line * 64] == std::byte{0xEE})
      ++evicted;
    else
      ++dropped;
  }
  EXPECT_GT(evicted, 0);
  EXPECT_GT(dropped, 0);
  // The same per-line coin as for user stores: identical outcomes.
  std::vector<std::byte> mem(1024, std::byte{0});
  pk::PmemSan user(mem.data(), mem.size(), "user", /*rules=*/false);
  std::memset(mem.data(), 0xEE, mem.size());
  user.on_store(0, mem.size(), pk::PmemSan::StoreOrigin::User);
  EXPECT_EQ(user.crash_image(pk::CrashPolicy::RandomEvict, 1), img);
}

// --- pools ------------------------------------------------------------------

struct Root {
  std::uint64_t counter;
  std::uint64_t values[8];
};

fs::path pool_path(const std::string& name) {
  return fs::temp_directory_path() /
         ("shadow-" + std::to_string(::getpid()) + "-" + name);
}

/// Clears an environment variable for one scope, restoring it after.
class ScopedUnsetenv {
 public:
  explicit ScopedUnsetenv(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
    ::unsetenv(name);
  }
  ~ScopedUnsetenv() {
    if (saved_) ::setenv(name_, saved_->c_str(), 1);
  }
  ScopedUnsetenv(const ScopedUnsetenv&) = delete;
  ScopedUnsetenv& operator=(const ScopedUnsetenv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// A redo session abandoned with cells staged — here by tx_alloc's undo-log
// overflow, after stage_alloc — leaves raw cells that never became durable.
// The crash image must not contain them, and the rules must accept them as
// dead scratch rather than report R5 at close.
TEST(ShadowPool, AbandonedRedoSessionStaysOutOfTheImage) {
  const fs::path path = pool_path("abandon");
  fs::remove(path);
  pk::PoolOptions options;
  options.track_shadow = true;
  options.pmemcheck = true;
  auto pool = pk::ObjectPool::create(path, "shadow", 32ull << 20, options);
  const auto sink = std::make_shared<pk::CountSink>();
  pool->pmemsan()->set_sink(sink);

  // One snapshot that leaves less undo-log room than an AllocAction entry.
  constexpr std::size_t kEntry = sizeof(pk::UndoEntryHeader);
  constexpr std::size_t kSnap = pk::kUndoLogBytes - 2 * kEntry + 16;
  const pk::ObjId big = pool->alloc_atomic(kSnap, 5, nullptr, true);
  auto* bytes = static_cast<std::byte*>(pool->direct(big));

  {
    const pk::ObjectPool::LaneSession session(*pool);
    const std::uint64_t cells_off = pk::kHeaderSize +
                                    session.lane() * pk::kLaneSize +
                                    offsetof(pk::LaneHeader, redo) +
                                    offsetof(pk::RedoLog, cells);
    constexpr std::size_t kCells = sizeof(pk::RedoLog::cells);
    const std::byte* cells = pool->region().base() + cells_off;
    const std::vector<std::byte> before(cells, cells + kCells);

    EXPECT_THROW(pool->run_tx([&] {
      pool->tx_add_range(bytes, kSnap);
      (void)pool->tx_alloc(64, 6);
    }),
                 pk::TxError);
    ASSERT_NE(std::memcmp(cells, before.data(), kCells), 0)
        << "tx_alloc staged no redo cells";
    const auto image =
        pool->region().crash_image(pk::CrashPolicy::DropUnflushed);
    EXPECT_EQ(std::memcmp(image.data() + cells_off, before.data(), kCells), 0)
        << "abandoned redo cells reached the crash image";
  }
  pool.reset();  // close_check
  EXPECT_EQ(sink->total(), 0u);
  fs::remove(path);
}

// track_shadow alone keeps the crash image without the rules: a seeded
// redundant flush reports nothing, even where the environment turns
// pmemcheck on for every other pool.
TEST(ShadowPool, TrackShadowAloneRunsNoRules) {
  const ScopedUnsetenv no_pmemcheck("CXLPMEM_PMEMCHECK");
  const fs::path path = pool_path("norules");
  fs::remove(path);
  pk::PoolOptions options;
  options.track_shadow = true;
  auto pool = pk::ObjectPool::create(path, "shadow", 32ull << 20, options);
  EXPECT_EQ(pool->pmemsan(), nullptr);
  auto* root = pool->direct(pool->root<Root>());
  root->counter = 7;
  pool->persist(&root->counter, sizeof(root->counter));
  EXPECT_NO_THROW({
    pool->flush(&root->counter, sizeof(root->counter));  // R3 pattern
    pool->drain();
  });
  const auto image = pool->region().crash_image(pk::CrashPolicy::DropUnflushed);
  std::uint64_t durable = 0;
  std::memcpy(&durable, image.data() + pool->region().offset_of(&root->counter),
              sizeof(durable));
  EXPECT_EQ(durable, 7u);
  pool.reset();
  fs::remove(path);
}

}  // namespace

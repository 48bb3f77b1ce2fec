// Live pool resize: grow is usable immediately and durable across reopen,
// shrink refuses (typed) while live objects occupy the doomed tail, both
// directions survive a power cut at every instrumentation point, and a
// failed ftruncate (RLIMIT_FSIZE) surfaces as ErrKind::Io with the pool
// still healthy and no marker debris left on the media.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include "evolve_fixture.hpp"
#include "pmemkit/crash_hook.hpp"
#include "temp_path.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fx = evolve_fixture;
namespace fs = std::filesystem;

namespace {

constexpr const char* kLayout = "resize-test";

std::unique_ptr<pk::ObjectPool> make_pool(const fs::path& p,
                                          std::uint64_t size) {
  fs::remove(p);
  pk::FileResource resource(p);
  return pk::ObjectPool::create(resource, kLayout, size);
}

std::unique_ptr<pk::ObjectPool> reopen(const fs::path& p) {
  pk::FileResource resource(p);
  return pk::ObjectPool::open(resource, kLayout);
}

/// Allocates ~chunk-sized objects until the heap refuses, returning how
/// many landed.  Leaves the heap with no free chunk.
std::uint64_t fill_heap(pk::ObjectPool& pool, std::vector<pk::ObjId>* out) {
  constexpr std::uint64_t kBig = 200 * 1024;  // one huge chunk per object
  std::uint64_t n = 0;
  for (;;) {
    try {
      pool.run_tx([&] {
        const pk::ObjId oid = pool.tx_alloc(kBig, 0x7e57, /*zero=*/false);
        if (out) out->push_back(oid);
      });
      ++n;
    } catch (const pk::AllocError& e) {
      EXPECT_EQ(e.kind(), pk::ErrKind::OutOfSpace);
      return n;
    }
  }
}

struct HookGuard {
  explicit HookGuard(pk::CrashHook hook) {
    pk::set_crash_hook(std::move(hook));
  }
  ~HookGuard() { pk::set_crash_hook({}); }
};

}  // namespace

TEST(ResizeTest, GrowIsImmediatelyUsable) {
  const TempPath path("resize", "grow.pool");
  auto pool = make_pool(path, pk::ObjectPool::min_pool_size());
  const std::uint64_t before = fill_heap(*pool, nullptr);
  ASSERT_GT(before, 0u);

  const std::uint64_t grown =
      pk::ObjectPool::min_pool_size() + 8 * pk::kChunkSize;
  pool->resize(grown);

  // Same process, same handle: the new span satisfies allocations at once.
  EXPECT_GT(fill_heap(*pool, nullptr), 0u);
  const pk::PoolStats stats = pool->stats();
  EXPECT_EQ(stats.pool_size, grown);
  EXPECT_EQ(stats.heap.span_count, 2u);
  EXPECT_EQ(stats.resizes, 1u);
  EXPECT_EQ(fs::file_size(path), grown);
}

TEST(ResizeTest, GrowPersistsAcrossReopen) {
  const TempPath path("resize", "grow-reopen.pool");
  const std::uint64_t grown =
      pk::ObjectPool::min_pool_size() + 8 * pk::kChunkSize;
  std::uint64_t filled = 0;
  {
    auto pool = make_pool(path, pk::ObjectPool::min_pool_size());
    fill_heap(*pool, nullptr);
    pool->resize(grown);
    filled = fill_heap(*pool, nullptr);
    ASSERT_GT(filled, 0u);
  }
  auto pool = reopen(path);
  const pk::PoolStats stats = pool->stats();
  EXPECT_FALSE(pool->recovered());
  EXPECT_EQ(stats.pool_size, grown);
  EXPECT_EQ(stats.heap.span_count, 2u);
  // Objects that landed in the adopted span are still reachable: the heap
  // rebuild counted them.
  EXPECT_GT(stats.heap.object_count, filled);
}

TEST(ResizeTest, ShrinkWithLiveTailIsRefused) {
  const TempPath path("resize", "shrink-live.pool");
  const std::uint64_t base = pk::ObjectPool::min_pool_size();
  auto pool = make_pool(path, base);
  fill_heap(*pool, nullptr);
  pool->resize(base + 8 * pk::kChunkSize);
  std::vector<pk::ObjId> tail;
  ASSERT_GT(fill_heap(*pool, &tail), 0u);  // tail span now holds live data

  try {
    pool->resize(base);
    FAIL() << "shrink dropped a span holding live objects";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::ShrinkBlocked);
  }
  // The refusal is pre-durable: nothing changed, the pool keeps working.
  EXPECT_EQ(pool->stats().pool_size, base + 8 * pk::kChunkSize);
  EXPECT_EQ(fs::file_size(path), base + 8 * pk::kChunkSize);
  pool->run_tx([&] { pool->tx_free(tail.front()); });
}

TEST(ResizeTest, ShrinkOfEmptyTailSucceeds) {
  const TempPath path("resize", "shrink-empty.pool");
  const std::uint64_t base = pk::ObjectPool::min_pool_size();
  const std::uint64_t grown = base + 8 * pk::kChunkSize;
  auto pool = make_pool(path, base);
  pool->resize(grown);
  ASSERT_EQ(pool->stats().heap.span_count, 2u);

  pool->resize(base);  // never allocated from the tail: retractable
  pk::PoolStats stats = pool->stats();
  EXPECT_EQ(stats.pool_size, base);
  EXPECT_EQ(stats.heap.span_count, 1u);
  EXPECT_EQ(stats.resizes, 2u);
  EXPECT_EQ(fs::file_size(path), base);

  pool.reset();
  pool = reopen(path);
  EXPECT_FALSE(pool->recovered());
  EXPECT_EQ(pool->stats().heap.span_count, 1u);
  pool->run_tx([&] { pool->tx_alloc(64, 1, /*zero=*/true); });
}

TEST(ResizeTest, ResizeInsideTransactionIsMisuse) {
  const TempPath path("resize", "misuse-tx.pool");
  auto pool = make_pool(path, pk::ObjectPool::min_pool_size());
  const std::uint64_t grown =
      pk::ObjectPool::min_pool_size() + 8 * pk::kChunkSize;
  EXPECT_THROW(pool->run_tx([&] { pool->resize(grown); }), pk::TxError);
  try {
    pk::ObjectPool::LaneSession session(*pool);
    pool->resize(grown);
    FAIL() << "resize proceeded under a LaneSession";
  } catch (const pk::TxError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::TxMisuse);
  }
  // Neither misuse left durable debris.
  EXPECT_EQ(pool->stats().pool_size, pk::ObjectPool::min_pool_size());
  pool->resize(grown);  // legal once the thread holds nothing
  EXPECT_EQ(pool->stats().pool_size, grown);
}

// Power failure at every instrumentation point of grow and shrink: reopen
// must land on wholly-old or wholly-new, the fixture payload intact either
// way, and a follow-up resize must complete.
TEST(ResizeTest, ResizeCrashSweep) {
  const TempPath path("resize", "sweep.pool");
  const std::uint64_t base = fx::fixture_pool_size();
  const std::uint64_t grown = base + 8 * pk::kChunkSize;

  const auto sweep = [&](std::uint64_t from, std::uint64_t to,
                         const char* dir) {
    // Counting pass on a throwaway copy.
    std::size_t total_points = 0;
    {
      auto pool = make_pool(path, base);
      fx::populate(*pool);
      if (from != base) pool->resize(from);
      HookGuard guard([&](std::string_view) { ++total_points; });
      pool->resize(to);
    }
    ASSERT_GE(total_points, 4u) << dir << " resize lost instrumentation";

    for (std::size_t k = 1; k <= total_points; ++k) {
      SCOPED_TRACE(std::string(dir) + " crash point " +
                   std::to_string(k) + "/" + std::to_string(total_points));
      auto pool = make_pool(path, base);
      fx::populate(*pool);
      if (from != base) pool->resize(from);
      bool crashed = false;
      {
        std::size_t seen = 0;
        HookGuard guard([&](std::string_view point) {
          if (++seen == k) throw pk::CrashInjected{std::string(point)};
        });
        try {
          pool->resize(to);
        } catch (const pk::CrashInjected&) {
          crashed = true;
        }
      }
      ASSERT_TRUE(crashed) << "crash point count changed between passes";
      pool->mark_crashed();
      pool.reset();

      pool = reopen(path);
      const std::uint64_t size_now = pool->stats().pool_size;
      EXPECT_TRUE(size_now == from || size_now == to)
          << "hybrid size " << size_now;
      EXPECT_EQ(fs::file_size(path), size_now);
      EXPECT_NO_THROW(fx::verify(*pool));

      pool->resize(to);  // redo converges
      EXPECT_EQ(pool->stats().pool_size, to);
      EXPECT_NO_THROW(fx::verify(*pool));
    }
  };

  sweep(base, grown, "grow");
  sweep(grown, base, "shrink");
}

// A grow that the filesystem refuses (RLIMIT_FSIZE capping the file at its
// current size) must surface as ErrKind::Io, leave the pool fully usable,
// and clear the marker it planted.
TEST(ResizeTest, GrowPastFileSizeLimitIsIoError) {
  const TempPath path("resize", "rlimit.pool");
  const std::uint64_t base = pk::ObjectPool::min_pool_size();
  auto pool = make_pool(path, base);
  pool->run_tx([&] { pool->tx_alloc(512, 3, /*zero=*/true); });

  struct rlimit saved {};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct sigaction old_sa {};
  struct sigaction ign {};
  ign.sa_handler = SIG_IGN;  // ftruncate past the cap raises SIGXFSZ first
  ASSERT_EQ(sigaction(SIGXFSZ, &ign, &old_sa), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = base;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);

  try {
    pool->resize(base + 8 * pk::kChunkSize);
    setrlimit(RLIMIT_FSIZE, &saved);
    FAIL() << "grow exceeded RLIMIT_FSIZE without an error";
  } catch (const pk::PoolError& e) {
    EXPECT_EQ(e.kind(), pk::ErrKind::Io);
  }
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  ASSERT_EQ(sigaction(SIGXFSZ, &old_sa, nullptr), 0);

  // The pool is unharmed and unmarked: still usable on this handle, and a
  // fresh open performs no recovery.
  EXPECT_EQ(pool->stats().pool_size, base);
  EXPECT_EQ(fs::file_size(path), base);
  pool->run_tx([&] { pool->tx_alloc(512, 3, /*zero=*/true); });
  pool.reset();
  pool = reopen(path);
  EXPECT_FALSE(pool->recovered());

  // And with the limit lifted, the same grow goes through.
  pool->resize(base + 8 * pk::kChunkSize);
  EXPECT_EQ(pool->stats().pool_size, base + 8 * pk::kChunkSize);
}

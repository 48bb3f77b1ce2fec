// Background compactor: relocation measurably reduces fragmentation with
// every payload intact (in-pool and volatile reference slots, across
// reopen), respects its byte budget, and survives power failure at every
// crash point of its relocation transactions.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "pmemkit/crash_sim.hpp"
#include "pmemkit/evolve.hpp"
#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"
#include "pmemkit/resource.hpp"
#include "temp_path.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kObjType = 0xc0;
constexpr std::uint32_t kSlots = 96;
// Big enough that the slot population spans several run chunks (a 2 KiB
// class would pack the whole test into one chunk, leaving the compactor
// nothing to free).
constexpr std::uint64_t kObjBytes = 8000;

struct CompactRoot {
  pk::ObjId slots[kSlots];
};

void fill_payload(unsigned char* data, std::uint64_t seq) {
  for (std::uint64_t b = 8; b < kObjBytes; ++b)
    data[b] = static_cast<unsigned char>((seq * 31 + b) & 0xff);
  std::memcpy(data, &seq, sizeof(seq));
}

void check_payload(const unsigned char* data, std::uint64_t want_seq) {
  std::uint64_t seq = 0;
  std::memcpy(&seq, data, sizeof(seq));
  ASSERT_EQ(seq, want_seq);
  for (std::uint64_t b = 8; b < kObjBytes; ++b)
    ASSERT_EQ(data[b], static_cast<unsigned char>((seq * 31 + b) & 0xff))
        << "payload byte " << b << " of object " << seq;
}

/// Allocates `n` checksummed objects into the root's slot array, then frees
/// three of every four — classic swiss-cheese fragmentation.
void populate_fragmented(pk::ObjectPool& pool, std::uint32_t n = kSlots) {
  const auto root_oid = pool.root<CompactRoot>();
  for (std::uint32_t i = 0; i < n; ++i) {
    pool.run_tx([&] {
      auto* root = static_cast<CompactRoot*>(pool.direct(root_oid));
      const pk::ObjId oid = pool.tx_alloc(kObjBytes, kObjType, /*zero=*/true);
      fill_payload(static_cast<unsigned char*>(pool.direct(oid)), i);
      pool.current_tx()->add_fresh_range(pool.direct(oid), kObjBytes);
      pool.tx_add_range(&root->slots[i], sizeof(pk::ObjId));
      root->slots[i] = oid;
    });
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i % 4 == 3) continue;  // keep one in four live
    pool.run_tx([&] {
      auto* root = static_cast<CompactRoot*>(pool.direct(root_oid));
      pool.tx_free(root->slots[i]);
      pool.tx_add_range(&root->slots[i], sizeof(pk::ObjId));
      root->slots[i] = pk::ObjId{};
    });
  }
}

/// Walks the root slots and checks every surviving payload.
void verify_payloads(pk::ObjectPool& pool, std::uint32_t n = kSlots) {
  auto* root =
      static_cast<CompactRoot*>(pool.direct(pool.root<CompactRoot>()));
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i % 4 != 3) {
      ASSERT_TRUE(root->slots[i].is_null());
      continue;
    }
    ASSERT_FALSE(root->slots[i].is_null()) << "object " << i << " lost";
    check_payload(
        static_cast<const unsigned char*>(pool.direct(root->slots[i])), i);
  }
}

std::vector<pk::ObjId*> root_refs(pk::ObjectPool& pool,
                                  std::uint32_t n = kSlots) {
  auto* root =
      static_cast<CompactRoot*>(pool.direct(pool.root<CompactRoot>()));
  std::vector<pk::ObjId*> refs;
  for (std::uint32_t i = 0; i < n; ++i) refs.push_back(&root->slots[i]);
  return refs;
}

}  // namespace

TEST(CompactTest, InPoolSlotsFragmentationDrops) {
  const TempPath path("compact", "inpool.pool");
  pk::FileResource resource(path);
  auto pool = pk::ObjectPool::create(resource, "compact-test",
                                     pk::ObjectPool::min_pool_size());
  populate_fragmented(*pool);
  const double frag_before = pool->stats().heap.fragmentation;
  ASSERT_GT(frag_before, 0.4) << "setup did not fragment the heap";

  const pk::CompactReport report = pk::compact_pool(*pool, root_refs(*pool));
  EXPECT_GT(report.moved_objects, 0u);
  EXPECT_GT(report.moved_bytes, 0u);
  EXPECT_LT(report.fragmentation_after, report.fragmentation_before);

  const double frag_after = pool->stats().heap.fragmentation;
  EXPECT_LT(frag_after, frag_before);
  verify_payloads(*pool);

  // The rewritten slots are durable: everything verifies after reopen.
  pool.reset();
  pk::FileResource again(path);
  pool = pk::ObjectPool::open(again, "compact-test");
  EXPECT_FALSE(pool->recovered());
  verify_payloads(*pool);
}

TEST(CompactTest, VolatileSlotsAreRewritten) {
  const TempPath path("compact", "volatile.pool");
  pk::FileResource resource(path);
  auto pool = pk::ObjectPool::create(resource, "compact-test",
                                     pk::ObjectPool::min_pool_size());
  // Objects owned by volatile slots only (a cache, an index under
  // rebuild...): the compactor updates the caller's memory post-commit.
  std::vector<pk::ObjId> slots(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    pool->run_tx([&] {
      slots[i] = pool->tx_alloc(kObjBytes, kObjType, /*zero=*/true);
      fill_payload(static_cast<unsigned char*>(pool->direct(slots[i])), i);
    });
  }
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    if (i % 4 == 3) continue;
    pool->run_tx([&] { pool->tx_free(slots[i]); });
    slots[i] = pk::ObjId{};
  }

  std::vector<pk::ObjId*> refs;
  for (auto& slot : slots) refs.push_back(&slot);
  const std::vector<pk::ObjId> before = slots;
  const pk::CompactReport report = pk::compact_pool(*pool, refs);
  EXPECT_GT(report.moved_objects, 0u);

  std::uint64_t rewritten = 0;
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    if (i % 4 != 3) {
      EXPECT_TRUE(slots[i].is_null());
      continue;
    }
    ASSERT_FALSE(slots[i].is_null());
    if (slots[i].off != before[i].off) ++rewritten;
    check_payload(
        static_cast<const unsigned char*>(pool->direct(slots[i])), i);
  }
  EXPECT_EQ(rewritten, report.moved_objects);
}

TEST(CompactTest, ByteBudgetIsHonored) {
  const TempPath path("compact", "budget.pool");
  pk::FileResource resource(path);
  auto pool = pk::ObjectPool::create(resource, "compact-test",
                                     pk::ObjectPool::min_pool_size());
  populate_fragmented(*pool);

  pk::CompactOptions opts;
  opts.max_moved_bytes = 3 * kObjBytes;
  const pk::CompactReport capped =
      pk::compact_pool(*pool, root_refs(*pool), opts);
  EXPECT_GT(capped.moved_objects, 0u);
  // The budget may be overshot by at most the object that crossed it.
  EXPECT_LE(capped.moved_bytes, opts.max_moved_bytes + 2 * kObjBytes);
  verify_payloads(*pool);

  // The remainder is still movable: an uncapped pass finishes the job.
  const pk::CompactReport rest = pk::compact_pool(*pool, root_refs(*pool));
  EXPECT_GT(rest.moved_objects, 0u);
  verify_payloads(*pool);
}

// Power failure at every crash point of the compactor's relocation
// transactions: each move is an ordinary undo-logged tx, so recovery must
// land every slot on either the old or the new location with the payload
// intact — and a rerun must converge.  A reduced population keeps the
// sweep's points x (setup + scenario) cost in check.
TEST(CompactTest, CompactionCrashSweep) {
  constexpr std::uint32_t kSweepSlots = 24;
  const TempPath path("compact", "sweep.pool");
  pk::CrashSimulator::Config cfg;
  cfg.pool_path = path;
  cfg.seed = 23;

  const auto setup = [](pk::ObjectPool& p) {
    populate_fragmented(p, kSweepSlots);
  };
  const auto scenario = [](pk::ObjectPool& p) {
    pk::compact_pool(p, root_refs(p, kSweepSlots));
  };
  const auto verify = [](pk::ObjectPool& p) {
    verify_payloads(p, kSweepSlots);
    const pk::PoolReport recovered = pk::inspect(p);
    ASSERT_TRUE(recovered.consistent) << pk::to_text(recovered);
    // Converge: the interrupted compaction can always be rerun.
    pk::compact_pool(p, root_refs(p, kSweepSlots));
    verify_payloads(p, kSweepSlots);
    const pk::PoolReport rerun = pk::inspect(p);
    ASSERT_TRUE(rerun.consistent) << pk::to_text(rerun);
  };
  const std::size_t points =
      pk::CrashSimulator(cfg).run(setup, scenario, verify);
  EXPECT_GT(points, 20u) << "compaction lost its crash instrumentation";
}

// Torn-tail recovery tests for the self-validating undo log (layout v2).
//
// The publish protocol's soundness argument is "the durable log is always a
// checksum-valid, current-generation prefix of what was appended" — so
// recovery may treat the first invalid entry as the torn end.  These tests
// attack that argument directly:
//   * a fuzz sweep corrupts/truncates the LAST published entry at every
//     byte boundary and asserts open() always recovers to the pre-tx image
//     and never throws (a torn tail is normal, not CorruptImage);
//   * a stale-generation image interleaves a new transaction's entry with
//     checksum-valid leftovers of the previous (committed) transaction and
//     asserts the scan stops at the generation fence instead of "rolling
//     back" committed data;
//   * manufactured torn-retire states (the single-drain state/tail pair
//     write of retire_lane) are each recoverable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"

namespace pk = cxlpmem::pmemkit;
namespace fs = std::filesystem;

namespace {

struct Root {
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t values[8];
};

constexpr std::uint64_t round16(std::uint64_t n) {
  return (n + 15) & ~std::uint64_t{15};
}

fs::path unique_path(const std::string& tag) {
  return fs::temp_directory_path() /
         ("torntail-" + std::to_string(::getpid()) + "-" + tag);
}

void write_image(const fs::path& p, const std::vector<std::byte>& image) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  ASSERT_TRUE(out);
}

/// Location of one lane's log inside a raw pool image.
struct LaneView {
  std::uint64_t lane_off = 0;     ///< LaneHeader offset in the image
  std::uint64_t undo_off = 0;     ///< undo log offset in the image
  pk::LaneHeader header{};
  std::uint64_t published = 0;    ///< valid-prefix bytes
  std::uint64_t last_entry = 0;   ///< offset of the last entry in the log
};

/// Finds the single non-idle lane of a raw image and its published prefix,
/// using only public layout structs + the library's own scan.
LaneView find_busy_lane(const std::vector<std::byte>& image) {
  pk::PoolHeader h;
  std::memcpy(&h, image.data(), sizeof(h));
  for (std::uint64_t l = 0; l < h.lane_count; ++l) {
    LaneView v;
    v.lane_off = h.lane_off + l * h.lane_size;
    v.undo_off = v.lane_off + sizeof(pk::LaneHeader);
    std::memcpy(&v.header, image.data() + v.lane_off, sizeof(v.header));
    if (static_cast<pk::LaneState>(v.header.state) == pk::LaneState::Idle)
      continue;
    v.published = pk::undo_published_bytes(image.data() + v.undo_off,
                                           v.header.undo_gen);
    std::uint64_t pos = 0;
    while (pos < v.published) {
      v.last_entry = pos;
      pk::UndoEntryHeader e;
      std::memcpy(&e, image.data() + v.undo_off + pos, sizeof(e));
      const std::uint64_t payload =
          static_cast<pk::UndoKind>(e.kind) == pk::UndoKind::Snapshot ? e.len
                                                                      : 0;
      pos += sizeof(e) + round16(payload);
    }
    return v;
  }
  ADD_FAILURE() << "no busy lane in image";
  return {};
}

/// Runs `scenario` on a fresh shadow-tracked pool, cutting power at the
/// `trip`-th occurrence of crash point `point`, and returns the
/// DropUnflushed media image.
std::vector<std::byte> image_at_crash(const fs::path& path,
                                      const std::string& point,
                                      int trip,
                                      const std::function<void(pk::ObjectPool&)>& setup,
                                      const std::function<void(pk::ObjectPool&)>& scenario) {
  fs::remove(path);
  pk::PoolOptions opts;
  opts.track_shadow = true;
  auto pool = pk::ObjectPool::create(path, "torn", pk::ObjectPool::min_pool_size(), opts);
  setup(*pool);

  int seen = 0;
  pk::set_crash_hook([&](std::string_view pt) {
    if (pt == point && ++seen == trip)
      throw pk::CrashInjected{std::string(pt)};
  });
  bool crashed = false;
  try {
    scenario(*pool);
  } catch (const pk::CrashInjected&) {
    crashed = true;
  }
  pk::set_crash_hook({});
  EXPECT_TRUE(crashed) << "scenario never reached " << point << " #" << trip;

  pool->mark_crashed();
  auto image = pool->region().crash_image(pk::CrashPolicy::DropUnflushed);
  pool.reset();
  return image;
}

// Corrupt (bit-flip) and truncate (zero-to-end) the last published entry at
// every byte boundary: every variant must open cleanly and recover the
// pre-transaction image.  A mismatching entry is a torn tail by protocol,
// never CorruptImage.
TEST(TornTail, LastEntryFuzzedAtEveryByteRecoversPreTxImage) {
  const fs::path path = unique_path("fuzz");
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 11;
    r->b = 22;
    for (int i = 0; i < 8; ++i) r->values[i] = 100 + i;
    p.persist(r, sizeof(Root));
  };
  // Crash right after the SECOND entry's publish fence: the log holds two
  // published snapshots, the user stores are unflushed (dropped).  The
  // last entry's payload is deliberately NOT a multiple of 4 bytes: the
  // checksum must cover the sub-word tail too (zero-padded), or flipping
  // that byte would go undetected and recovery would restore garbage.
  const auto image = image_at_crash(
      path, "tx:entry", 2, setup, [](pk::ObjectPool& p) {
        auto* r = p.direct(p.root<Root>());
        p.run_tx([&] {
          p.tx_add_range(&r->a, 16);
          r->a = 1000;
          r->b = 2000;
          p.tx_add_range(r->values, 61);
          for (int i = 0; i < 7; ++i) r->values[i] = 0xdead;
        });
      });

  const LaneView lane = find_busy_lane(image);
  ASSERT_GT(lane.published, 0u);
  ASSERT_GT(lane.published, lane.last_entry);
  ASSERT_EQ(static_cast<pk::LaneState>(lane.header.state),
            pk::LaneState::Active);

  const auto verify_pre_tx = [&](const std::vector<std::byte>& img,
                                 const std::string& what) {
    write_image(path, img);
    std::unique_ptr<pk::ObjectPool> re;
    ASSERT_NO_THROW(re = pk::ObjectPool::open(path, "torn")) << what;
    auto* r = re->direct(re->root<Root>());
    EXPECT_EQ(r->a, 11u) << what;
    EXPECT_EQ(r->b, 22u) << what;
    for (std::uint64_t i = 0; i < 8; ++i)
      EXPECT_EQ(r->values[i], 100 + i) << what << " i=" << i;
    const auto report = pk::inspect(*re);
    EXPECT_TRUE(report.busy_lanes.empty()) << what;
  };

  for (std::uint64_t b = lane.last_entry; b < lane.published; ++b) {
    {
      auto img = image;
      img[lane.undo_off + b] ^= std::byte{0xFF};
      verify_pre_tx(img, "flip @" + std::to_string(b));
    }
    {
      auto img = image;
      std::memset(img.data() + lane.undo_off + b, 0, lane.published - b);
      verify_pre_tx(img, "truncate @" + std::to_string(b));
    }
  }
  fs::remove(path);
}

// Checksum-valid leftovers of a committed transaction sit in the log right
// behind a new transaction's first entry.  The generation fence must stop
// the recovery scan there — revalidating the stale entries would "roll
// back" committed data.
TEST(TornTail, StaleGenerationEntriesNeverRevalidate) {
  const fs::path path = unique_path("stalegen");
  const auto setup = [](pk::ObjectPool& p) {
    auto* r = p.direct(p.root<Root>());
    r->a = 1;
    for (int i = 0; i < 8; ++i) r->values[i] = 100 + i;
    p.persist(r, sizeof(Root));
  };
  const auto image = image_at_crash(
      path, "tx:entry", 3, setup, [](pk::ObjectPool& p) {
        auto* r = p.direct(p.root<Root>());
        // tx1 (commits): a 64-byte entry followed by a 112-byte values
        // entry.  After retirement both stay in the log, checksum-valid.
        p.run_tx([&] {
          p.tx_add_range(&r->a, 8);
          r->a = 1;
          p.tx_add_range(r->values, sizeof(r->values));
          for (int i = 0; i < 8; ++i) r->values[i] = 500 + i;
        });
        // tx2: one snapshot whose entry is ALSO exactly 64 bytes, so it
        // overwrites tx1's first entry precisely and tx1's second entry —
        // intact, valid checksum, valid kind — sits right at the scan
        // boundary.  Power cut at tx2's publish fence (3rd "tx:entry").
        p.run_tx([&] {
          p.tx_add_range(&r->b, 8);
          r->b = 9999;
        });
      });

  // The published prefix must stop at exactly tx2's one entry: the next
  // bytes are tx1's fully intact values entry, and ONLY the generation
  // fence keeps the scan from accepting it.
  const LaneView lane = find_busy_lane(image);
  ASSERT_EQ(lane.published, sizeof(pk::UndoEntryHeader) + 16);
  {
    pk::UndoEntryHeader stale;
    std::memcpy(&stale, image.data() + lane.undo_off + lane.published,
                sizeof(stale));
    ASSERT_EQ(static_cast<pk::UndoKind>(stale.kind), pk::UndoKind::Snapshot);
    ASSERT_EQ(stale.gen + 1, lane.header.undo_gen)
        << "image does not contain the stale-generation hazard under test";
    // Checksum-valid with the right length: the revalidation hazard is real.
    ASSERT_EQ(stale.len, sizeof(Root::values));
  }

  write_image(path, image);
  auto re = pk::ObjectPool::open(path, "torn");
  auto* r = re->direct(re->root<Root>());
  // tx1 committed: its values must survive tx2's rollback.
  EXPECT_EQ(r->a, 1u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(r->values[i], 500 + i);
  re.reset();
  fs::remove(path);
}

// The torn outcomes of retire_lane's single-drain {state, tail} pair write,
// manufactured directly in the image: Idle next to a stale tail (reset on
// open) and Committed next to a zero tail (idempotent re-scan, which ends
// at the generation fence).  Neither may throw or disturb committed data.
TEST(TornTail, TornRetirePairStatesRecover) {
  const fs::path path = unique_path("retire");
  fs::remove(path);
  std::uint64_t lane0_off = 0;
  {
    auto pool = pk::ObjectPool::create(path, "torn", pk::ObjectPool::min_pool_size());
    auto* r = pool->direct(pool->root<Root>());
    pool->run_tx([&] {
      pool->tx_add_range(&r->a, 8);
      r->a = 42;
    });
    pk::PoolHeader h;
    std::memcpy(&h, pool->region().base(), sizeof(h));
    lane0_off = h.lane_off;
  }

  std::vector<std::byte> image(fs::file_size(path));
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.read(reinterpret_cast<char*>(image.data()),
                        static_cast<std::streamsize>(image.size())));
  }
  // Find the retired lane the transaction used (gen bumped by begin).
  pk::PoolHeader h;
  std::memcpy(&h, image.data(), sizeof(h));
  std::uint64_t used = h.lane_count;
  for (std::uint64_t l = 0; l < h.lane_count; ++l) {
    pk::LaneHeader lh;
    std::memcpy(&lh, image.data() + lane0_off + l * h.lane_size, sizeof(lh));
    if (lh.undo_gen != 0) used = l;
  }
  ASSERT_LT(used, h.lane_count);
  const std::uint64_t lane_off = lane0_off + used * h.lane_size;

  const auto reopen_and_check = [&](const std::vector<std::byte>& img,
                                    const std::string& what) {
    write_image(path, img);
    std::unique_ptr<pk::ObjectPool> re;
    ASSERT_NO_THROW(re = pk::ObjectPool::open(path, "torn")) << what;
    EXPECT_EQ(re->direct(re->root<Root>())->a, 42u) << what;
    const auto report = pk::inspect(*re);
    EXPECT_TRUE(report.busy_lanes.empty()) << what;
  };

  {
    // Idle + stale tail: the next open resets the tail.
    auto img = image;
    pk::LaneHeader lh;
    std::memcpy(&lh, img.data() + lane_off, sizeof(lh));
    lh.undo_tail = 12345;
    std::memcpy(img.data() + lane_off, &lh, sizeof(lh));
    reopen_and_check(img, "idle+stale-tail");
  }
  {
    // Committed + zero tail: recovery re-scans (the retired log's wiped
    // head ends the scan immediately; re-running deferred frees would be
    // idempotent anyway) and retires.
    auto img = image;
    pk::LaneHeader lh;
    std::memcpy(&lh, img.data() + lane_off, sizeof(lh));
    lh.state = static_cast<std::uint32_t>(pk::LaneState::Committed);
    lh.undo_tail = 0;
    std::memcpy(img.data() + lane_off, &lh, sizeof(lh));
    reopen_and_check(img, "committed+zero-tail");
  }
  {
    // Idle + un-wiped log head (the torn-retire subset where Idle landed
    // but the head wipe did not): restoring the first entry's kind/flags
    // words makes the retired transaction's entry checksum-valid again
    // under the CURRENT generation — recovery must re-wipe it before the
    // lane can be reused, or a later torn begin could roll committed data
    // back.
    auto img = image;
    const std::uint64_t undo_off = lane_off + sizeof(pk::LaneHeader);
    const std::uint64_t head =
        static_cast<std::uint64_t>(pk::UndoKind::Snapshot);  // kind=1,flags=0
    std::memcpy(img.data() + undo_off, &head, sizeof(head));
    write_image(path, img);
    std::unique_ptr<pk::ObjectPool> re;
    ASSERT_NO_THROW(re = pk::ObjectPool::open(path, "torn"));
    EXPECT_TRUE(re->recovered()) << "idle-lane head wipe not performed";
    EXPECT_EQ(re->direct(re->root<Root>())->a, 42u);
    re.reset();
    // The wipe must be durable: the image on disk scans empty again.
    std::vector<std::byte> after(fs::file_size(path));
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.read(reinterpret_cast<char*>(after.data()),
                        static_cast<std::streamsize>(after.size())));
    pk::LaneHeader lh;
    std::memcpy(&lh, after.data() + lane_off, sizeof(lh));
    EXPECT_EQ(pk::undo_published_bytes(after.data() + undo_off, lh.undo_gen),
              0u);
  }
  fs::remove(path);
}

}  // namespace

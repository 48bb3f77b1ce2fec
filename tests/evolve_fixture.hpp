// tests/evolve_fixture.hpp — shared machinery for the pool-evolution tests
// and the golden-fixture tool (tools/pool_fixture.cpp).
//
// Three pieces:
//   * a recognizable persistent payload (FixtureRoot + checksummed records)
//     written through the compiled-in TxPublish::TwoPersistReference path —
//     the version-1 transaction protocol — and verifiable after migration;
//   * make_v1_image(): builds that pool, then stamps the image back to
//     layout version 1 (the at-rest v1 format differs from v2 only in the
//     header version — both undo protocols leave empty logs on clean
//     close — so the stamp + checksum recompute yields a faithful v1 pool);
//   * a sparse image codec, so the multi-megabyte (mostly zero) golden
//     image checks into tests/fixtures/ as a few-KiB artifact.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmemkit/evolve.hpp"
#include "pmemkit/introspect.hpp"
#include "pmemkit/pmemkit.hpp"
#include "pmemkit/resource.hpp"

namespace evolve_fixture {

namespace pk = cxlpmem::pmemkit;

inline constexpr std::uint32_t kRootType = 0x9001;
inline constexpr std::uint32_t kRecType = 0x9002;
inline constexpr std::uint32_t kRecCount = 48;

/// One checksummed record: `len` payload bytes follow the struct inline.
struct FixtureRec {
  std::uint64_t seq;
  std::uint64_t len;
  std::uint64_t sum;
};

struct FixtureRoot {
  pk::ObjId recs[kRecCount];
  std::uint64_t live;  ///< records not erased by the fragmentation pass
};

inline std::uint64_t payload_sum(const unsigned char* p, std::uint64_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t i = 0; i < len; ++i)
    h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

/// Deterministic per-record payload length: a mix of run-class sizes and a
/// couple of huge (multi-chunk) spans, so migration and compaction see
/// every allocator shape.
inline std::uint64_t rec_len(std::uint32_t i) {
  static constexpr std::uint64_t kLens[] = {40,   200,   1000, 3000,
                                            8000, 60000, 300000};
  return kLens[i % (sizeof(kLens) / sizeof(kLens[0]))];
}

/// Fills `pool` with the fixture records (each in its own transaction, so
/// the TwoPersistReference publish path runs many times), then erases every
/// third record to leave real fragmentation behind.
inline void populate(pk::ObjectPool& pool) {
  const pk::ObjId root_oid = pool.root_raw(sizeof(FixtureRoot), kRootType);
  for (std::uint32_t i = 0; i < kRecCount; ++i) {
    pool.run_tx([&] {
      auto* root = static_cast<FixtureRoot*>(pool.direct(root_oid));
      const std::uint64_t len = rec_len(i);
      const pk::ObjId oid =
          pool.tx_alloc(sizeof(FixtureRec) + len, kRecType, /*zero=*/true);
      auto* rec = static_cast<FixtureRec*>(pool.direct(oid));
      auto* payload = reinterpret_cast<unsigned char*>(rec + 1);
      // Nonzero pattern only in the head; the zero tail still participates
      // in the checksum (a migration that tore it would be caught) while
      // keeping the sparse-coded golden image small.
      for (std::uint64_t b = 0; b < std::min<std::uint64_t>(len, 256); ++b)
        payload[b] = static_cast<unsigned char>(1 + ((i * 131 + b * 7) & 0x7f));
      rec->seq = i;
      rec->len = len;
      rec->sum = payload_sum(payload, len);
      pool.current_tx()->add_fresh_range(rec, sizeof(FixtureRec) + len);
      pool.tx_add_range(&root->recs[i], sizeof(pk::ObjId));
      pool.tx_add_range(&root->live, sizeof(root->live));
      root->recs[i] = oid;
      root->live += 1;
    });
  }
  for (std::uint32_t i = 0; i < kRecCount; i += 3) {
    pool.run_tx([&] {
      auto* root = static_cast<FixtureRoot*>(pool.direct(root_oid));
      pool.tx_free(root->recs[i]);
      pool.tx_add_range(&root->recs[i], sizeof(pk::ObjId));
      pool.tx_add_range(&root->live, sizeof(root->live));
      root->recs[i] = pk::ObjId{};
      root->live -= 1;
    });
  }
}

/// Verifies every fixture record (seq / length / payload checksum), the
/// erased slots and the heap's structural consistency (inspect(), which
/// includes the occupancy counters against the walk).  Throws
/// std::runtime_error with a precise message on the first mismatch;
/// returns the number of live records checked.
inline std::uint64_t verify(pk::ObjectPool& pool) {
  const pk::ObjId root_oid = pool.root_raw(sizeof(FixtureRoot), kRootType);
  auto* root = static_cast<FixtureRoot*>(pool.direct(root_oid));
  std::uint64_t live = 0;
  for (std::uint32_t i = 0; i < kRecCount; ++i) {
    if (i % 3 == 0) {
      if (!root->recs[i].is_null())
        throw std::runtime_error("record " + std::to_string(i) +
                                 " should have been erased");
      continue;
    }
    if (root->recs[i].is_null())
      throw std::runtime_error("record " + std::to_string(i) + " lost");
    const auto* rec =
        static_cast<const FixtureRec*>(pool.direct(root->recs[i]));
    if (rec->seq != i || rec->len != rec_len(i))
      throw std::runtime_error("record " + std::to_string(i) +
                               " header mismatch");
    const auto* payload = reinterpret_cast<const unsigned char*>(rec + 1);
    if (payload_sum(payload, rec->len) != rec->sum)
      throw std::runtime_error("record " + std::to_string(i) +
                               " payload corrupted");
    ++live;
  }
  if (root->live != live)
    throw std::runtime_error("live-record count mismatch");
  const pk::PoolReport report = pk::inspect(pool);
  if (!report.consistent)
    throw std::runtime_error("inconsistent pool: " + pk::to_text(report));
  return live;
}

/// Pool size the fixture uses: the minimum plus room for the huge records.
inline std::uint64_t fixture_pool_size() {
  return pk::ObjectPool::min_pool_size() + 16 * pk::kChunkSize;
}

/// Builds the golden image at `path`: a populated pool written through the
/// TwoPersistReference protocol, cleanly closed, then stamped back to
/// layout version 1 (version + recomputed header checksum; the span-table /
/// marker area is zeroed, as no v1 pool ever had either).
inline void make_v1_image(const std::filesystem::path& path) {
  std::filesystem::remove(path);
  {
    pk::FileResource resource(path);
    pk::PoolOptions options;
    options.tx_publish = pk::TxPublish::TwoPersistReference;
    auto pool = pk::ObjectPool::create(resource, "evolve-fixture",
                                       fixture_pool_size(), options);
    populate(*pool);
  }
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) throw std::runtime_error("cannot reopen " + path.string());
  pk::PoolHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  h.version = pk::kPoolVersionV1;
  h.checksum = pk::header_checksum(h);
  f.seekp(0);
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));
  const std::vector<char> zeros(pk::kHeaderSize - pk::kSpanTableOff, 0);
  f.seekp(static_cast<std::streamoff>(pk::kSpanTableOff));
  f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  if (!f) throw std::runtime_error("v1 stamp failed: " + path.string());
}

// --- sparse image codec ----------------------------------------------------
//
// "CXLFIXT1" magic, u64 total size, then {u64 off, u64 len, len bytes}
// records covering every 4 KiB block that holds a nonzero byte.

inline constexpr char kSparseMagic[8] = {'C', 'X', 'L', 'F',
                                         'I', 'X', 'T', '1'};

inline void save_sparse(const std::filesystem::path& image,
                        const std::filesystem::path& out) {
  std::ifstream in(image, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + image.string());
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::ofstream o(out, std::ios::binary | std::ios::trunc);
  if (!o) throw std::runtime_error("cannot write " + out.string());
  o.write(kSparseMagic, sizeof(kSparseMagic));
  const std::uint64_t total = bytes.size();
  o.write(reinterpret_cast<const char*>(&total), sizeof(total));
  constexpr std::uint64_t kBlock = 4096;
  std::uint64_t run_start = 0, run_len = 0;
  const auto flush_run = [&] {
    if (run_len == 0) return;
    o.write(reinterpret_cast<const char*>(&run_start), sizeof(run_start));
    o.write(reinterpret_cast<const char*>(&run_len), sizeof(run_len));
    o.write(bytes.data() + run_start, static_cast<std::streamsize>(run_len));
    run_len = 0;
  };
  for (std::uint64_t off = 0; off < total; off += kBlock) {
    const std::uint64_t len = std::min(kBlock, total - off);
    bool zero = true;
    for (std::uint64_t b = 0; b < len && zero; ++b)
      zero = bytes[off + b] == 0;
    if (zero) {
      flush_run();
      continue;
    }
    if (run_len == 0) run_start = off;
    if (run_start + run_len != off) flush_run(), run_start = off;
    run_len += len;
  }
  flush_run();
  if (!o) throw std::runtime_error("sparse write failed: " + out.string());
}

inline void load_sparse(const std::filesystem::path& fixture,
                        const std::filesystem::path& image) {
  std::ifstream in(fixture, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + fixture.string());
  char magic[8];
  std::uint64_t total = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&total), sizeof(total));
  if (!in || std::memcmp(magic, kSparseMagic, sizeof(magic)) != 0)
    throw std::runtime_error("not a sparse fixture: " + fixture.string());
  std::vector<char> bytes(total, 0);
  for (;;) {
    std::uint64_t off = 0, len = 0;
    in.read(reinterpret_cast<char*>(&off), sizeof(off));
    if (in.eof()) break;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!in || off + len > total)
      throw std::runtime_error("corrupt sparse fixture: " +
                               fixture.string());
    in.read(bytes.data() + off, static_cast<std::streamsize>(len));
    if (!in)
      throw std::runtime_error("truncated sparse fixture: " +
                               fixture.string());
  }
  std::ofstream o(image, std::ios::binary | std::ios::trunc);
  if (!o) throw std::runtime_error("cannot write " + image.string());
  o.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!o) throw std::runtime_error("image write failed: " + image.string());
}

}  // namespace evolve_fixture

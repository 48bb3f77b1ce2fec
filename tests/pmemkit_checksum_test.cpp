// Tests for the checksum constructions: fletcher64 (headers/log entries),
// fingerprint64 (bulk checkpoint-chunk fingerprints) and fnv1a64 (shard
// routing).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pmemkit/checksum.hpp"

namespace pk = cxlpmem::pmemkit;

namespace {

TEST(Checksum, Fletcher64IsStableAndNonZero) {
  const char data[] = "cxlpmem-checkpoint-header";
  const auto a = pk::fletcher64(data, sizeof(data));
  EXPECT_EQ(a, pk::fletcher64(data, sizeof(data)));
  EXPECT_NE(a, 0u);
  EXPECT_NE(pk::fletcher64("", 0), 0u);  // 0 means "unset" on media
}

TEST(Checksum, Fingerprint64IsDeterministic) {
  std::vector<std::uint8_t> buf(256 * 1024, 0x42);
  const auto a = pk::fingerprint64(buf.data(), buf.size());
  EXPECT_EQ(a, pk::fingerprint64(buf.data(), buf.size()));
  EXPECT_NE(a, 0u);
}

TEST(Checksum, Fingerprint64SeesEveryByte) {
  // Flip one byte at a spread of positions — including the zero-padded
  // tail — and the fingerprint must change every time.
  std::vector<std::uint8_t> buf(4099, 0xA5);  // deliberately not 32-aligned
  const auto base = pk::fingerprint64(buf.data(), buf.size());
  for (std::size_t pos : {std::size_t{0}, std::size_t{31}, std::size_t{32},
                          std::size_t{2048}, buf.size() - 2, buf.size() - 1}) {
    auto copy = buf;
    copy[pos] ^= 0x01;
    EXPECT_NE(pk::fingerprint64(copy.data(), copy.size()), base)
        << "byte " << pos;
  }
}

TEST(Checksum, Fingerprint64DependsOnLength) {
  // Zero padding must not make a short buffer collide with its padded
  // sibling (the length feeds the finalizer).
  std::vector<std::uint8_t> buf(64, 0);
  EXPECT_NE(pk::fingerprint64(buf.data(), 33),
            pk::fingerprint64(buf.data(), 64));
  EXPECT_NE(pk::fingerprint64(buf.data(), 0),
            pk::fingerprint64(buf.data(), 1));
}

TEST(Checksum, Fingerprint64CatchesCorruptionInAStampedBlock) {
  // The verify-on-decompress construction tierkv's cold blocks use: stamp
  // fingerprint64(raw) next to a transformed payload, and on read require
  // that the recovered bytes re-hash to the stamp.  Model the transform as
  // a byte-wise involution (xor 0x5A) so "decode" is trivial here; corrupt
  // the stored payload at every offset and insist the stamp catches it.
  std::vector<std::uint8_t> raw(1024);
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] = static_cast<std::uint8_t>(i * 31 + 7);
  const std::uint64_t stamp = pk::fingerprint64(raw.data(), raw.size());

  std::vector<std::uint8_t> stored(raw);
  for (std::uint8_t& b : stored) b ^= 0x5A;  // "encode"

  for (std::size_t i = 0; i < stored.size(); i += 13) {
    std::vector<std::uint8_t> block(stored);
    block[i] ^= 0x01;
    for (std::uint8_t& b : block) b ^= 0x5A;  // "decode"
    EXPECT_NE(pk::fingerprint64(block.data(), block.size()), stamp)
        << "corruption at byte " << i << " slipped past the stamp";
  }

  // And the pristine block round-trips: decode then verify passes.
  std::vector<std::uint8_t> decoded(stored);
  for (std::uint8_t& b : decoded) b ^= 0x5A;
  EXPECT_EQ(pk::fingerprint64(decoded.data(), decoded.size()), stamp);
}

TEST(Checksum, Fingerprint64SpreadsNearbyInputs) {
  // Weak sanity on avalanche: single-word counters must not produce
  // clustered fingerprints (a plain sum would).
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::uint8_t word[8];
    std::memcpy(word, &i, 8);
    const auto h = pk::fingerprint64(word, 8);
    EXPECT_NE(h, prev);
    EXPECT_GT(__builtin_popcountll(h ^ prev), 8) << "i=" << i;
    prev = h;
  }
}

// cxlpmemd routes every key by fnv1a64 % shards, so the hash is part of
// the on-media contract: a changed value would move keys away from the
// shard pools that hold them.  Pinned to the FNV-1a reference vectors.
TEST(Checksum, Fnv1a64MatchesTheReferenceVectors) {
  EXPECT_EQ(pk::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(pk::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

}  // namespace

// tierkv_codec_test — the compression seam: block round-trips, the
// stored-raw fallback for incompressible values, and the integrity
// contract: a block corrupted at ANY byte either fails verification or
// still decodes to exactly the original bytes — wrong bytes never escape.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "tierkv/codec.hpp"

namespace {

using namespace cxlpmem;
using tierkv::BlockError;
using tierkv::CodecId;
using tierkv::decode_block;
using tierkv::encode_block;
using tierkv::find_codec;
using tierkv::kBlockHeaderBytes;

std::string compressible_value(std::size_t n) {
  // The shape of an LLM KV block in tests everywhere in this suite: long
  // repeated stretches with periodic variation.
  std::string v;
  v.reserve(n);
  while (v.size() < n) {
    v += "token-run token-run token-run ";
    v += std::to_string(v.size() % 97);
  }
  v.resize(n);
  return v;
}

std::string random_value(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> byte(0, 255);
  std::string v(n, '\0');
  for (char& c : v) c = static_cast<char>(byte(gen));
  return v;
}

TEST(TierkvCodec, RegistryKnowsItsCodecs) {
  EXPECT_NE(find_codec("lz"), nullptr);
  EXPECT_NE(find_codec("identity"), nullptr);
  EXPECT_EQ(find_codec("zstd"), nullptr);
  EXPECT_EQ(find_codec(""), nullptr);
}

TEST(TierkvCodec, LzRoundTripsAndShrinksCompressibleValues) {
  const std::string raw = compressible_value(8192);
  const std::string block = encode_block(find_codec("lz"), raw);
  ASSERT_GE(block.size(), kBlockHeaderBytes);
  EXPECT_EQ(static_cast<std::uint8_t>(block[1]),
            static_cast<std::uint8_t>(CodecId::Lz));
  // The point of the codec: the cold tier stores well under raw size.
  EXPECT_LT(block.size(), raw.size() / 2);
  ASSERT_EQ(tierkv::block_raw_len(block).value(), raw.size());

  std::string out;
  EXPECT_FALSE(decode_block(block, out).has_value());
  EXPECT_EQ(out, raw);
}

TEST(TierkvCodec, IncompressibleValueFallsBackToStoredRaw) {
  const std::string raw = random_value(4096, 7);
  const std::string block = encode_block(find_codec("lz"), raw);
  // Worst case is bounded: raw + header, never more.
  EXPECT_EQ(block.size(), raw.size() + kBlockHeaderBytes);
  EXPECT_EQ(static_cast<std::uint8_t>(block[1]),
            static_cast<std::uint8_t>(CodecId::Raw));

  std::string out;
  EXPECT_FALSE(decode_block(block, out).has_value());
  EXPECT_EQ(out, raw);
}

TEST(TierkvCodec, IdentityAndNullCodecStoreRaw) {
  const std::string raw = compressible_value(512);
  for (const tierkv::Codec* codec :
       {find_codec("identity"), static_cast<const tierkv::Codec*>(nullptr)}) {
    const std::string block = encode_block(codec, raw);
    EXPECT_EQ(block.size(), raw.size() + kBlockHeaderBytes);
    std::string out;
    EXPECT_FALSE(decode_block(block, out).has_value());
    EXPECT_EQ(out, raw);
  }
}

TEST(TierkvCodec, EmptyAndTinyValuesRoundTrip) {
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u}) {
    const std::string raw(n, 'x');
    const std::string block = encode_block(find_codec("lz"), raw);
    std::string out;
    EXPECT_FALSE(decode_block(block, out).has_value()) << "n=" << n;
    EXPECT_EQ(out, raw) << "n=" << n;
  }
}

TEST(TierkvCodec, TruncatedBlockIsBadHeader) {
  const std::string block =
      encode_block(find_codec("lz"), compressible_value(256));
  std::string out;
  for (std::size_t n = 0; n < kBlockHeaderBytes; ++n)
    EXPECT_EQ(decode_block(std::string_view(block).substr(0, n), out),
              BlockError::BadHeader);
}

// The verify-on-decompress contract, exhaustively: flip bits at every byte
// of the block (header and payload) and require that decode either reports
// an error or still reproduces the original bytes.  The one thing that must
// never happen is a clean decode of wrong data.
TEST(TierkvCodec, CorruptionAtAnyByteNeverYieldsWrongBytes) {
  const std::string raw = compressible_value(2048);
  for (const char* codec_name : {"lz", "identity"}) {
    const std::string pristine = encode_block(find_codec(codec_name), raw);
    std::size_t detected = 0;
    for (std::size_t i = 0; i < pristine.size(); ++i) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
        std::string block = pristine;
        block[i] = static_cast<char>(block[i] ^ mask);
        std::string out;
        const auto err = decode_block(block, out);
        if (err.has_value())
          ++detected;
        else
          EXPECT_EQ(out, raw) << codec_name << " byte " << i;
      }
    }
    // Nearly every flip must actually be *detected*; a few decode
    // equivalently (reserved header bytes, Raw <-> Identity codec ids,
    // run-length encodings of the same sequence) and that is fine — they
    // reproduced the right bytes, which is the contract.
    EXPECT_GT(detected, pristine.size() * 3 * 95 / 100) << codec_name;
  }
}

TEST(TierkvCodec, FingerprintMismatchIsReportedAsSuch) {
  // Corrupt only the fingerprint stamp (bytes 8..15): the payload decodes
  // structurally fine, so the error must be the fingerprint check.
  const std::string raw = compressible_value(1024);
  std::string block = encode_block(find_codec("lz"), raw);
  block[12] = static_cast<char>(block[12] ^ 0x40);
  std::string out;
  EXPECT_EQ(decode_block(block, out), BlockError::FingerprintMismatch);
}

TEST(TierkvCodec, LongRunsAndOverlappingMatchesRoundTrip) {
  // RLE shape (offset < match length) plus >255-byte runs exercise the
  // extension bytes and the overlapping-copy loop.
  std::string raw(10000, 'a');
  raw += "tail";
  raw += std::string(700, 'b');
  const std::string block = encode_block(find_codec("lz"), raw);
  EXPECT_LT(block.size(), 200u);
  std::string out;
  EXPECT_FALSE(decode_block(block, out).has_value());
  EXPECT_EQ(out, raw);
}

}  // namespace

#include "tierkv/codec.hpp"

#include <algorithm>
#include <cstring>

#include "pmemkit/checksum.hpp"

namespace cxlpmem::tierkv {

namespace {

// --- identity ---------------------------------------------------------------

class IdentityCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "identity";
  }
  bool compress(std::string_view raw, std::string& out) const override {
    out.append(raw);
    return true;  // "shrunk to the same size": stored as-is by choice
  }
  bool decompress(std::string_view payload, std::size_t raw_len,
                  std::string& out) const override {
    if (payload.size() != raw_len) return false;
    out.append(payload);
    return true;
  }
};

// --- lz ---------------------------------------------------------------------
//
// LZ4-style sequences: each sequence is
//   token        1 byte — high nibble = literal count, low = match len - 4
//   [lit ext]    255-run extension bytes while a nibble saturates at 15
//   literals     `literal count` bytes copied verbatim
//   offset       2 bytes little-endian (1..65535 back-distance)
//   [match ext]  extension bytes for the match length
// The final sequence carries literals only (no offset).  Matching is greedy
// over a 4-byte hash table — one probe per position, last-writer-wins, the
// classic fast-LZ4 shape.  No window beyond 64 KiB (16-bit offsets).

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t hash4(const char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void emit_run_length(std::string& out, std::size_t extra) {
  while (extra >= 255) {
    out.push_back(static_cast<char>(0xFF));
    extra -= 255;
  }
  out.push_back(static_cast<char>(extra));
}

void emit_sequence(std::string& out, const char* lit, std::size_t lit_len,
                   std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nib = lit_len < 15 ? lit_len : 15;
  const bool has_match = match_len >= kMinMatch;
  const std::size_t match_code = has_match ? match_len - kMinMatch : 0;
  const std::size_t match_nib = has_match ? (match_code < 15 ? match_code : 15)
                                          : 0;
  out.push_back(static_cast<char>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) emit_run_length(out, lit_len - 15);
  out.append(lit, lit_len);
  if (!has_match) return;
  out.push_back(static_cast<char>(offset & 0xFF));
  out.push_back(static_cast<char>((offset >> 8) & 0xFF));
  if (match_nib == 15) emit_run_length(out, match_code - 15);
}

class LzCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lz";
  }

  bool compress(std::string_view raw, std::string& out) const override {
    const std::size_t start = out.size();
    const char* base = raw.data();
    const std::size_t n = raw.size();
    if (n < kMinMatch + 1) {
      emit_sequence(out, base, n, 0, 0);
      return out.size() - start < n;
    }
    std::uint32_t table[kHashSize];
    std::memset(table, 0xFF, sizeof(table));  // 0xFFFFFFFF = empty
    std::size_t pos = 0, anchor = 0;
    // Stop matching where a 4-byte load would run off the buffer.
    const std::size_t match_limit = n - kMinMatch;
    while (pos <= match_limit) {
      const std::uint32_t h = hash4(base + pos);
      const std::uint32_t cand = table[h];
      table[h] = static_cast<std::uint32_t>(pos);
      if (cand == 0xFFFFFFFFu || pos - cand > 0xFFFF ||
          std::memcmp(base + cand, base + pos, kMinMatch) != 0) {
        ++pos;
        continue;
      }
      // Extend the match as far as the buffer allows.
      std::size_t len = kMinMatch;
      while (pos + len < n && base[cand + len] == base[pos + len]) ++len;
      emit_sequence(out, base + anchor, pos - anchor, len, pos - cand);
      pos += len;
      anchor = pos;
      if (out.size() - start >= n) return false;  // not shrinking: give up
    }
    emit_sequence(out, base + anchor, n - anchor, 0, 0);
    return out.size() - start < n;
  }

  bool decompress(std::string_view payload, std::size_t raw_len,
                  std::string& out) const override {
    const std::size_t start = out.size();
    std::size_t p = 0;
    const auto read_run = [&](std::size_t nibble,
                              std::size_t& len) noexcept -> bool {
      len = nibble;
      if (nibble != 15) return true;
      for (;;) {
        if (p >= payload.size()) return false;
        const auto b = static_cast<std::uint8_t>(payload[p++]);
        len += b;
        if (b != 255) return true;
      }
    };
    while (p < payload.size()) {
      const auto token = static_cast<std::uint8_t>(payload[p++]);
      std::size_t lit_len = 0;
      if (!read_run(token >> 4, lit_len)) return false;
      if (p + lit_len > payload.size()) return false;
      out.append(payload.data() + p, lit_len);
      p += lit_len;
      if (p == payload.size()) break;  // final, literal-only sequence
      if (p + 2 > payload.size()) return false;
      const std::size_t offset =
          static_cast<std::uint8_t>(payload[p]) |
          (static_cast<std::size_t>(static_cast<std::uint8_t>(payload[p + 1]))
           << 8);
      p += 2;
      std::size_t match_code = 0;
      if (!read_run(token & 0xF, match_code)) return false;
      const std::size_t match_len = match_code + kMinMatch;
      const std::size_t produced = out.size() - start;
      if (offset == 0 || offset > produced) return false;
      if (produced + match_len > raw_len) return false;
      // Overlapping copy (offset < match_len is the RLE case): byte loop.
      std::size_t src = out.size() - offset;
      for (std::size_t i = 0; i < match_len; ++i) out.push_back(out[src + i]);
    }
    return out.size() - start == raw_len;
  }
};

const IdentityCodec g_identity;
const LzCodec g_lz;

void store_header(std::string& block, const BlockHeader& h) {
  block.resize(kBlockHeaderBytes);
  std::memcpy(block.data(), &h, kBlockHeaderBytes);
}

bool load_header(std::string_view block, BlockHeader& h) noexcept {
  if (block.size() < kBlockHeaderBytes) return false;
  std::memcpy(&h, block.data(), kBlockHeaderBytes);
  return h.magic == BlockHeader::kMagic;
}

}  // namespace

const char* to_string(BlockError e) noexcept {
  switch (e) {
    case BlockError::BadHeader: return "bad-header";
    case BlockError::BadPayload: return "bad-payload";
    case BlockError::FingerprintMismatch: return "fingerprint-mismatch";
  }
  return "?";
}

std::string encode_block(const Codec* codec, std::string_view raw) {
  BlockHeader h;
  h.raw_len = static_cast<std::uint32_t>(raw.size());
  h.raw_fingerprint = pmemkit::fingerprint64(raw.data(), raw.size());
  std::string block;
  block.reserve(kBlockHeaderBytes + raw.size());
  store_header(block, h);
  if (codec != nullptr && codec->compress(raw, block) &&
      block.size() < kBlockHeaderBytes + raw.size()) {
    BlockHeader stamped = h;
    stamped.codec = static_cast<std::uint8_t>(
        codec == &g_identity ? CodecId::Identity : CodecId::Lz);
    std::memcpy(block.data(), &stamped, kBlockHeaderBytes);
    return block;
  }
  // Stored-raw fallback: the codec failed to shrink (or none was given).
  block.resize(kBlockHeaderBytes);
  block.append(raw);
  return block;
}

std::optional<BlockError> decode_block(std::string_view block,
                                       std::string& out) {
  BlockHeader h;
  if (!load_header(block, h)) return BlockError::BadHeader;
  const std::string_view payload = block.substr(kBlockHeaderBytes);
  out.clear();
  // The reserve is only a hint: a corrupted raw_len must cost a failed
  // decode, not a multi-gigabyte allocation.
  out.reserve(std::min<std::size_t>(h.raw_len, 1u << 20));
  switch (static_cast<CodecId>(h.codec)) {
    case CodecId::Raw:
      if (payload.size() != h.raw_len) return BlockError::BadPayload;
      out.append(payload);
      break;
    case CodecId::Identity:
      if (!g_identity.decompress(payload, h.raw_len, out))
        return BlockError::BadPayload;
      break;
    case CodecId::Lz:
      if (!g_lz.decompress(payload, h.raw_len, out))
        return BlockError::BadPayload;
      break;
    default:
      return BlockError::BadHeader;
  }
  // Verify-on-decompress: the decoded bytes must match the stamp taken
  // before compression — this is the tier's end-to-end integrity check.
  if (pmemkit::fingerprint64(out.data(), out.size()) != h.raw_fingerprint)
    return BlockError::FingerprintMismatch;
  return std::nullopt;
}

std::optional<std::uint32_t> block_raw_len(std::string_view block) noexcept {
  BlockHeader h;
  if (!load_header(block, h)) return std::nullopt;
  return h.raw_len;
}

const Codec* find_codec(std::string_view name) noexcept {
  if (name == "identity") return &g_identity;
  if (name == "lz") return &g_lz;
  return nullptr;
}

}  // namespace cxlpmem::tierkv

// tierkv/codec.hpp — the compression seam of the tiered KV cache.
//
// Cold values are stored as self-describing *blocks*: a fixed header
// carrying the codec id, the raw length and a pmemkit::fingerprint64 of the
// raw bytes, followed by the codec's payload.  encode_block() picks the
// stored-raw fallback automatically when a codec fails to shrink its input
// (incompressible values must never grow by more than the header), and
// decode_block() re-fingerprints the decompressed bytes against the header
// stamp — a cold block that decodes to the wrong bytes (bit rot, a codec
// bug, a torn media write that slipped past the pool's own machinery) is
// detected here, before the bad value reaches a caller.
//
// Codecs ship in-tree and dependency-free:
//   identity — memcpy, the A/B baseline;
//   lz       — an LZ4-style byte-oriented LZ77 (greedy hash-table matcher,
//              token = literal-run + match-run nibbles, 16-bit offsets).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cxlpmem::tierkv {

/// A (de)compressor.  Implementations are stateless and thread-safe —
/// one instance serves every shard concurrently.
class Codec {
 public:
  virtual ~Codec() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Appends the compressed form of `raw` to `out`.  Returns false when the
  /// codec cannot beat the raw size (caller then stores raw) — so `out` may
  /// hold a partial attempt; the caller truncates.
  virtual bool compress(std::string_view raw, std::string& out) const = 0;
  /// Appends exactly `raw_len` decompressed bytes to `out`; false on a
  /// structurally invalid payload.
  virtual bool decompress(std::string_view payload, std::size_t raw_len,
                          std::string& out) const = 0;
};

/// Stable on-media codec ids (block header field — append-only).
enum class CodecId : std::uint8_t {
  Raw = 0,       ///< stored-raw fallback (no codec ran)
  Identity = 1,  ///< identity codec selected explicitly
  Lz = 2,        ///< the LZ4-style block codec
};

/// The fixed block header in front of every cold value.
struct BlockHeader {
  std::uint8_t magic = kMagic;
  std::uint8_t codec = 0;         ///< CodecId
  std::uint16_t reserved = 0;
  std::uint32_t raw_len = 0;
  std::uint64_t raw_fingerprint = 0;  ///< pmemkit::fingerprint64(raw)

  static constexpr std::uint8_t kMagic = 0xCB;  ///< "Cold Block"
};

inline constexpr std::size_t kBlockHeaderBytes = 16;
static_assert(sizeof(BlockHeader) == kBlockHeaderBytes);

/// Outcome of decode_block when the block cannot be trusted.
enum class BlockError {
  BadHeader,       ///< truncated / wrong magic / unknown codec id
  BadPayload,      ///< the codec rejected the payload structure
  FingerprintMismatch,  ///< decoded bytes don't match the header stamp
};

[[nodiscard]] const char* to_string(BlockError e) noexcept;

/// Encodes `raw` as a block using `codec` (nullptr = always store raw).
/// Falls back to stored-raw when the codec does not shrink the value, so
/// the worst case is raw + kBlockHeaderBytes.
[[nodiscard]] std::string encode_block(const Codec* codec,
                                       std::string_view raw);

/// Decodes and *verifies* a block: the decompressed bytes are
/// re-fingerprinted against the header stamp.  On success `out` holds the
/// raw value; on failure the BlockError says what broke.
[[nodiscard]] std::optional<BlockError> decode_block(std::string_view block,
                                                     std::string& out);

/// The raw length a block claims, without decoding it (admission sizing).
[[nodiscard]] std::optional<std::uint32_t> block_raw_len(
    std::string_view block) noexcept;

/// Codec registry: "identity" and "lz".  Unknown names return nullptr.
/// The returned pointer is a process-lifetime singleton — never freed.
[[nodiscard]] const Codec* find_codec(std::string_view name) noexcept;

/// Every registered codec name, for --help strings and flag validation.
[[nodiscard]] std::vector<std::string_view> codec_names();

}  // namespace cxlpmem::tierkv

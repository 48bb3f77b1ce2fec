// pmemkit/checksum.hpp — Fletcher-64 checksum, the same construction PMDK
// uses for pool headers and log entries, plus a lane-parallel variant for
// bulk payload data (checkpoint chunk fingerprints).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cxlpmem::pmemkit {

/// Resumable Fletcher-64: feed discontiguous pieces of the checksummed
/// bytes through update() and read final().  A sub-word tail (of any
/// chunk — leftovers carry across calls) is absorbed zero-padded, so every
/// byte fed in is covered: the undo log uses this checksum as its publish
/// point, and an uncovered tail byte would be a hole a torn write could
/// slip through.  This is what lets the undo-log scan verify header +
/// payload in place — no per-entry copy buffer.
class Fletcher64 {
 public:
  void update(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t i = 0;
    if (pending_len_ > 0) {
      while (pending_len_ < 4 && i < len) pending_[pending_len_++] = p[i++];
      if (pending_len_ == 4) {
        absorb(pending_);
        pending_len_ = 0;
      }
    }
    for (; i + 4 <= len; i += 4) absorb(p + i);
    // pending_len_ is provably 0 here whenever i < len, so the tail can
    // never overflow pending_ — but spell the bound out so constant-size
    // inlined calls don't trip -Waggressive-loop-optimizations.
    while (i < len && pending_len_ < 4) pending_[pending_len_++] = p[i++];
  }
  [[nodiscard]] std::uint64_t final() const noexcept {
    std::uint64_t lo = lo_, hi = hi_;
    if (pending_len_ > 0) {
      std::uint8_t tail[4] = {0, 0, 0, 0};
      for (std::size_t i = 0; i < pending_len_; ++i) tail[i] = pending_[i];
      std::uint32_t word;
      std::memcpy(&word, tail, 4);
      lo += word;
      hi += lo;
    }
    const std::uint64_t sum = (hi << 32) | (lo & 0xffffffffu);
    return sum == 0 ? 1 : sum;
  }

 private:
  void absorb(const std::uint8_t* p) noexcept {
    std::uint32_t word;
    std::memcpy(&word, p, 4);
    lo_ += word;
    hi_ += lo_;
  }

  std::uint64_t lo_ = 0, hi_ = 0;
  std::uint8_t pending_[4] = {0, 0, 0, 0};
  std::size_t pending_len_ = 0;
};

/// Fletcher-64 over `len` bytes; a trailing sub-word is absorbed
/// zero-padded, so all `len` bytes are covered.  Never returns 0, so 0 can
/// mean "unset" in on-media structs.
[[nodiscard]] inline std::uint64_t fletcher64(const void* data,
                                              std::size_t len) noexcept {
  Fletcher64 f;
  f.update(data, len);
  return f.final();
}

/// Bulk-data fingerprint (xxHash64-style rounds over four independent
/// lanes, avalanche finalizer).  fletcher64's lo->hi chain serializes on
/// the adds — fine for 64-byte headers, a bandwidth ceiling for the
/// checkpoint engine that fingerprints its whole payload, page by page,
/// each epoch.  The four multiply-rotate lanes here pipeline (one 64-bit
/// multiply in flight per lane), so the scan runs at near-STREAM read
/// rates.  Arbitrary length (tail is zero-padded), never returns 0 so 0
/// can mean "unset" in on-media tables.  NOT interchangeable with
/// fletcher64 — media structs pick one construction and stick with it.
[[nodiscard]] inline std::uint64_t fingerprint64(const void* data,
                                                 std::size_t len) noexcept {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  const auto rotl = [](std::uint64_t x, int r) noexcept {
    return (x << r) | (x >> (64 - r));
  };
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t acc[4] = {kP1, kP2, kP3, kP1 ^ kP2};
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, 32);  // pmemlint: allow(read into a stack word buffer)
    for (int k = 0; k < 4; ++k) acc[k] = rotl(acc[k] + w[k] * kP2, 31) * kP1;
  }
  if (i < len) {
    std::uint64_t w[4] = {0, 0, 0, 0};
    std::memcpy(w, p + i, len - i);  // pmemlint: allow(read into a stack word buffer)
    for (int k = 0; k < 4; ++k) acc[k] = rotl(acc[k] + w[k] * kP2, 31) * kP1;
  }
  std::uint64_t h = rotl(acc[0], 1) + rotl(acc[1], 7) + rotl(acc[2], 12) +
                    rotl(acc[3], 18) + len;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h == 0 ? 1 : h;
}

}  // namespace cxlpmem::pmemkit

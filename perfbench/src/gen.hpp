// gen.hpp — the seeded request generator of the two kv workloads.
//
// Only the generator consumes the seed: it turns (workload, seed,
// connection) into a deterministic stream of SET/GET requests plus the
// ledger of what every owned key must hold, and the benchmark sends the
// program nothing but those requests.  Connections own disjoint keys, so
// every GET has exactly one correct answer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Static shape of a kv workload (sizes are recorded in BENCHMARK.json).
struct KvShape {
  std::string name;
  int conns = 4;              ///< nonblocking connections, one generator thread
  int depth = 16;             ///< requests outstanding per connection
  bool tier = false;
  std::uint64_t tier_dram_bytes = 0;  ///< whole-server DRAM budget
  std::uint32_t keys_per_conn = 0;
  std::uint32_t set_pct = 0;  ///< SET share of the mix, percent
  std::uint32_t min_len = 0, max_len = 0;  ///< value sizes
  bool log_sizes = false;     ///< sizes log-uniform (spread over classes)
  // kv_read_tiered: keys are "seq<s>/b<j>", zipfian over sequences, each
  // access a prefix fetch b0..b(m-1).
  std::uint32_t blocks_per_seq = 0;
  double zipf_theta = 0;
  std::uint32_t warmup_requests = 0;  ///< kv_write: fixed warm-up length
  int warmup_windows = 0;  ///< kv_read_tiered: warm-up windows of 8192
};

[[nodiscard]] KvShape kv_write_shape();
[[nodiscard]] KvShape kv_read_tiered_shape();

enum class Op : std::uint8_t { Set, Get };

struct Req {
  Op op = Op::Get;
  std::uint32_t key = 0;      ///< key index local to the connection
  std::uint32_t version = 0;  ///< SET: the new version; GET: expected
  std::uint32_t len = 0;      ///< SET: the new length; GET: expected
};

/// One connection's request stream and the ledger of its keys.
class KvStream {
 public:
  KvStream(const KvShape& shape, std::uint64_t seed, int conn);

  [[nodiscard]] std::string key(std::uint32_t id) const;
  [[nodiscard]] std::uint32_t keys() const noexcept {
    return shape_->keys_per_conn;
  }
  /// The preload SET of key `id` (version 0).
  [[nodiscard]] Req preload(std::uint32_t id) const {
    return Req{Op::Set, id, 0, len_[id]};
  }
  /// The current ledger entry of key `id`, as a GET expecting it.
  [[nodiscard]] Req expect(std::uint32_t id) const {
    return Req{Op::Get, id, version_[id], len_[id]};
  }
  /// Next request of the mix; a SET advances the ledger.
  Req next();
  /// Live user bytes (key + value) of every owned key.
  [[nodiscard]] std::uint64_t live_bytes() const;

 private:
  std::uint32_t draw_len();

  const KvShape* shape_;
  int conn_;
  Rng rng_;
  std::vector<std::uint32_t> version_;
  std::vector<std::uint32_t> len_;
  std::unique_ptr<Zipf> zipf_;
  // Prefix fetch in progress (kv_read_tiered).
  std::uint32_t seq_ = 0, next_block_ = 0, run_end_ = 0;
};

/// Appends the RESP bytes of `r` for key string `key`.
void encode_request(std::string& out, const Req& r, const std::string& key,
                    const ValuePool& pool);

/// fingerprint of the first `n` mix requests (after the preload) of every
/// connection of `shape` under `seed`, as the bytes that go on the wire.
[[nodiscard]] std::uint64_t stream_digest(const KvShape& shape,
                                          std::uint64_t seed, std::size_t n);

}  // namespace perfbench

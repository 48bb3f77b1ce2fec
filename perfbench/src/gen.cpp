#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "pmemkit/checksum.hpp"

namespace perfbench {

KvShape kv_write_shape() {
  KvShape s;
  s.name = "kv_write";
  s.keys_per_conn = 10000;  // 40k keys: ~40 per bucket in each of 4x256
  s.set_pct = 80;
  s.min_len = 64;
  s.max_len = 2048;
  s.log_sizes = true;
  s.warmup_requests = 10000;
  return s;
}

KvShape kv_read_tiered_shape() {
  KvShape s;
  s.name = "kv_read_tiered";
  s.tier = true;
  s.blocks_per_seq = 16;
  s.keys_per_conn = 192 * 16;  // 768 sequences x 16 blocks = 12288 keys
  s.set_pct = 5;
  s.min_len = 3584;            // ~4 KiB values
  s.max_len = 4608;
  s.zipf_theta = 0.99;
  // 12288 keys x ~4 KiB = ~48 MiB raw: the DRAM tier holds about a quarter.
  s.tier_dram_bytes = 12ull << 20;
  s.warmup_windows = 6;
  return s;
}

KvStream::KvStream(const KvShape& shape, std::uint64_t seed, int conn)
    : shape_(&shape),
      conn_(conn),
      rng_(seed, 0x6b76'0000ull + static_cast<std::uint64_t>(conn)),
      version_(shape.keys_per_conn, 0),
      len_(shape.keys_per_conn, 0) {
  for (std::uint32_t& l : len_) l = draw_len();
  if (shape.blocks_per_seq != 0)
    zipf_ = std::make_unique<Zipf>(shape.keys_per_conn / shape.blocks_per_seq,
                                   shape.zipf_theta);
}

std::string KvStream::key(std::uint32_t id) const {
  char buf[48];
  int n = 0;
  if (shape_->blocks_per_seq == 0) {
    n = std::snprintf(buf, sizeof(buf), "w%d:%u", conn_, id);
  } else {
    const std::uint32_t seq =
        (id / shape_->blocks_per_seq) *
            static_cast<std::uint32_t>(shape_->conns) +
        static_cast<std::uint32_t>(conn_);
    n = std::snprintf(buf, sizeof(buf), "seq%u/b%u", seq,
                      id % shape_->blocks_per_seq);
  }
  return std::string(buf, static_cast<std::size_t>(n));
}

std::uint32_t KvStream::draw_len() {
  if (!shape_->log_sizes)
    return static_cast<std::uint32_t>(
        rng_.range(shape_->min_len, shape_->max_len));
  const double span = std::log2(static_cast<double>(shape_->max_len) /
                                static_cast<double>(shape_->min_len));
  return static_cast<std::uint32_t>(static_cast<double>(shape_->min_len) *
                                    std::exp2(rng_.unit() * span));
}

Req KvStream::next() {
  const bool set = rng_.below(100) < shape_->set_pct;
  std::uint32_t id = 0;
  if (shape_->blocks_per_seq == 0) {
    id = static_cast<std::uint32_t>(rng_.below(shape_->keys_per_conn));
  } else {
    if (next_block_ >= run_end_) {
      // A new prefix fetch: a zipfian sequence, blocks 0..m-1.
      seq_ = static_cast<std::uint32_t>(zipf_->draw(rng_));
      next_block_ = 0;
      run_end_ = static_cast<std::uint32_t>(
          rng_.range(4, shape_->blocks_per_seq));
    }
    const std::uint32_t block =
        set ? static_cast<std::uint32_t>(rng_.below(run_end_))
            : next_block_++;
    id = seq_ * shape_->blocks_per_seq + block;
  }
  if (!set) return expect(id);
  version_[id] += 1;
  len_[id] = draw_len();
  return Req{Op::Set, id, version_[id], len_[id]};
}

std::uint64_t KvStream::live_bytes() const {
  std::uint64_t total = 0;
  for (std::uint32_t id = 0; id < keys(); ++id)
    total += key(id).size() + len_[id];
  return total;
}

void encode_request(std::string& out, const Req& r, const std::string& key,
                    const ValuePool& pool) {
  if (r.op == Op::Get) {
    out += "*2\r\n$3\r\nGET\r\n$";
    out += std::to_string(key.size());
    out += "\r\n";
    out += key;
    out += "\r\n";
    return;
  }
  out += "*3\r\n$3\r\nSET\r\n$";
  out += std::to_string(key.size());
  out += "\r\n";
  out += key;
  out += "\r\n$";
  out += std::to_string(std::max<std::size_t>(r.len, value_header_bytes(key)));
  out += "\r\n";
  append_value(out, pool, key, r.version, r.len);
  out += "\r\n";
}

std::uint64_t stream_digest(const KvShape& shape, std::uint64_t seed,
                            std::size_t n) {
  const ValuePool pool(seed);
  std::uint64_t digest = 0;
  std::string bytes;
  for (int c = 0; c < shape.conns; ++c) {
    KvStream s(shape, seed, c);
    bytes.clear();
    for (std::uint32_t id = 0; id < s.keys(); ++id)
      encode_request(bytes, s.preload(id), s.key(id), pool);
    for (std::size_t i = 0; i < n; ++i) {
      const Req r = s.next();
      encode_request(bytes, r, s.key(r.key), pool);
    }
    digest = digest * 0x100000001B3ull ^
             cxlpmem::pmemkit::fingerprint64(bytes.data(), bytes.size());
  }
  return digest;
}

}  // namespace perfbench

#include "tierkv/cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/runtime.hpp"
#include "pmemkit/checksum.hpp"
#include "pmemkit/errors.hpp"

namespace cxlpmem::tierkv {

namespace {

using pmemkit::fnv1a64;

/// Per-entry DRAM overhead beyond key+value bytes: hash-map node, clock
/// slot, string headers.  An estimate, but a *charged* estimate — the budget
/// is honest about small entries instead of pretending they are free.
constexpr std::uint64_t kEntryOverhead = 64;

/// Runs `tier`'s batch calls in `body` as a batch of one, in their own
/// transaction on `pool`.  The caller holds the tier lock.
template <typename F>
void run_alone(TieredCache& tier, pmemkit::ObjectPool& pool, F&& body) {
  try {
    pool.run_tx(std::forward<F>(body));
  } catch (...) {
    tier.discard_staged();
    throw;
  }
  tier.commit_staged();
}

}  // namespace

TieredCache::TieredCache(service::DurableMap& cold, TierOptions opts)
    : cold_(&cold),
      opts_(std::move(opts)),
      sketch_(std::max<std::uint64_t>(opts_.dram_bytes / 128, 64)) {
  codec_ = find_codec(opts_.codec);
  if (codec_ == nullptr)
    throw std::invalid_argument("tierkv: unknown codec '" + opts_.codec +
                                "' (registered: identity, lz)");
  if (opts_.dram_bytes == 0)
    throw std::invalid_argument("tierkv: dram_bytes must be non-zero");
}

std::uint64_t TieredCache::entry_bytes(std::string_view key,
                                       std::string_view value)
    const noexcept {
  return key.size() + value.size() + kEntryOverhead;
}

// ---------------------------------------------------------------------------
// DRAM tier plumbing (mu_ held throughout)

void TieredCache::hot_insert(std::string_view key, std::string_view value) {
  const auto it = hot_.try_emplace(std::string(key)).first;
  Hot& h = it->second;
  h.value.assign(value);
  h.slot = clock_.acquire();
  if (h.slot >= slot_keys_.size()) slot_keys_.resize(h.slot + 1, nullptr);
  slot_keys_[h.slot] = &it->first;
  dram_used_ += entry_bytes(key, value);
}

void TieredCache::hot_erase(HotMap::iterator it, bool count_demotion) {
  Hot& h = it->second;
  dram_used_ -= entry_bytes(it->first, h.value);
  if (count_demotion) {
    ++stats_.demotions;
    stats_.bytes_moved += h.value.size();
  }
  slot_keys_[h.slot] = nullptr;
  clock_.release(h.slot);
  hot_.erase(it);
}

// Demotion drops the DRAM copy: every entry is already durable in the
// cold tier.
bool TieredCache::ensure_room(std::uint64_t need) {
  if (need > opts_.dram_bytes) return false;
  while (dram_used_ + need > opts_.dram_bytes) {
    const std::uint32_t v = clock_.next_victim();
    if (v == ClockRing::kNoSlot) return false;
    hot_erase(hot_.find(*slot_keys_[v]), /*count_demotion=*/true);
  }
  return true;
}

void TieredCache::hot_admit(std::string_view key, std::string_view value) {
  const std::uint64_t need = entry_bytes(key, value);
  if (need > opts_.dram_bytes) return;
  // TinyLFU gate: when admission would evict, the candidate must out-earn
  // the CLOCK victim.
  if (dram_used_ + need > opts_.dram_bytes) {
    const std::uint32_t v = clock_.next_victim();
    if (v == ClockRing::kNoSlot) return;
    if (!sketch_.admit(fnv1a64(key), fnv1a64(*slot_keys_[v]))) return;
    hot_erase(hot_.find(*slot_keys_[v]), /*count_demotion=*/true);
  }
  if (!ensure_room(need)) return;
  hot_insert(key, value);
}

// ---------------------------------------------------------------------------
// Cold tier plumbing (mu_ held; cold blocks via the codec seam)

void TieredCache::cold_put(std::string_view key, std::string_view value,
                           std::int64_t* d_raw, std::int64_t* d_comp) {
  const std::string block = encode_block(codec_, value);
  *d_raw = static_cast<std::int64_t>(value.size());
  *d_comp = static_cast<std::int64_t>(block.size());
  if (const auto prior = cold_->get(key)) {
    *d_comp -= static_cast<std::int64_t>(prior->size());
    const auto rl = block_raw_len(*prior);
    *d_raw -= static_cast<std::int64_t>(rl ? *rl : prior->size());
  }
  cold_->put_in_tx(key, block);
}

bool TieredCache::cold_erase(std::string_view key, std::int64_t* d_raw,
                             std::int64_t* d_comp) {
  const auto prior = cold_->get(key);
  if (!prior) return false;
  *d_comp = -static_cast<std::int64_t>(prior->size());
  const auto rl = block_raw_len(*prior);
  *d_raw = -static_cast<std::int64_t>(rl ? *rl : prior->size());
  return cold_->erase_in_tx(key);
}

std::optional<std::string> TieredCache::cold_get(std::string_view key) {
  const auto block = cold_->get(key);
  if (!block) return std::nullopt;
  std::string raw;
  if (const auto err = decode_block(*block, raw))
    throw pmemkit::PoolError(
        pmemkit::ErrKind::CorruptImage,
        "tierkv: cold block for key '" + std::string(key) +
            "' failed verification: " + to_string(*err));
  return raw;
}

// ---------------------------------------------------------------------------
// Own-transaction operations: the batch calls as a batch of one

void TieredCache::put(std::string_view key, std::string_view value) {
  const std::lock_guard<std::mutex> lk(mu_);
  run_alone(*this, cold_->pool(), [&] { put_in_tx(key, value); });
}

std::optional<std::string> TieredCache::get(std::string_view key) {
  const std::lock_guard<std::mutex> lk(mu_);
  return get_in_batch(key);
}

bool TieredCache::erase(std::string_view key) {
  const std::lock_guard<std::mutex> lk(mu_);
  bool erased = false;
  run_alone(*this, cold_->pool(), [&] { erased = erase_in_tx(key); });
  return erased;
}

bool TieredCache::exists(std::string_view key) {
  const std::lock_guard<std::mutex> lk(mu_);
  return exists_in_batch(key);
}

// ---------------------------------------------------------------------------
// Batch composition (caller holds batch_lock() and the transaction)

std::unique_lock<std::mutex> TieredCache::batch_lock() {
  return std::unique_lock<std::mutex>(mu_);
}

void TieredCache::put_in_tx(std::string_view key, std::string_view value) {
  const std::string k(key);
  sketch_.record(fnv1a64(k));
  StagedOp op;
  op.key = k;
  op.value.emplace(value);
  cold_put(k, value, &op.d_raw, &op.d_comp);
  staged_.push_back(std::move(op));
}

bool TieredCache::erase_in_tx(std::string_view key) {
  const std::string k(key);
  StagedOp op;
  op.key = k;
  if (!cold_erase(k, &op.d_raw, &op.d_comp)) return false;
  staged_.push_back(std::move(op));
  return true;
}

std::optional<std::string> TieredCache::get_in_batch(std::string_view key) {
  const std::string k(key);
  // Read-your-writes inside the open batch: the newest staged op for this
  // key wins, and the DRAM tier (which still reflects the pre-batch state)
  // must not be consulted past it.
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->key != k) continue;
    if (!it->value) return std::nullopt;
    ++stats_.hits;
    return it->value;
  }
  sketch_.record(fnv1a64(k));
  if (const auto it = hot_.find(k); it != hot_.end()) {
    ++stats_.hits;
    clock_.touch(it->second.slot);
    return it->second.value;
  }
  // Unstaged keys are untouched by the open transaction, so this decodes
  // committed data — safe to promote even if the batch later aborts.
  auto raw = cold_get(k);
  if (!raw) return std::nullopt;
  ++stats_.misses;
  hot_admit(k, *raw);
  if (hot_.count(k) != 0) {
    ++stats_.promotions;
    stats_.bytes_moved += raw->size();
  }
  return raw;
}

bool TieredCache::exists_in_batch(std::string_view key) {
  const std::string k(key);
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it)
    if (it->key == k) return it->value.has_value();
  return hot_.count(k) != 0 || cold_->exists(k);
}

void TieredCache::commit_staged() {
  for (StagedOp& op : staged_) {
    stats_.raw_bytes += static_cast<std::uint64_t>(op.d_raw);
    stats_.compressed_bytes += static_cast<std::uint64_t>(op.d_comp);
    const auto it = hot_.find(op.key);
    if (!op.value) {
      if (it != hot_.end()) hot_erase(it, /*count_demotion=*/false);
      continue;
    }
    if (it != hot_.end()) {
      dram_used_ -= entry_bytes(op.key, it->second.value);
      it->second.value = std::move(*op.value);
      dram_used_ += entry_bytes(op.key, it->second.value);
      clock_.touch(it->second.slot);
    } else {
      hot_admit(op.key, *op.value);
    }
  }
  staged_.clear();
  ensure_room(0);  // grown overwrites may have blown the budget
}

void TieredCache::discard_staged() { staged_.clear(); }

// ---------------------------------------------------------------------------
// Introspection

TierStats TieredCache::stats() const {
  TierStats s = stats_;
  s.dram_bytes_used = dram_used_;
  s.dram_bytes_budget = opts_.dram_bytes;
  s.dram_entries = hot_.size();
  return s;
}

// ---------------------------------------------------------------------------
// Topology-derived DRAM budget

std::uint64_t derive_dram_budget(api::Runtime& rt,
                                 std::uint64_t working_set_bytes,
                                 double hot_fraction) {
  constexpr std::uint64_t kFloor = 1ull << 20;
  if (hot_fraction <= 0.0 || hot_fraction > 1.0) hot_fraction = 0.25;
  std::uint64_t want = std::max<std::uint64_t>(
      kFloor, static_cast<std::uint64_t>(
                  static_cast<double>(working_set_bytes) * hot_fraction));
  // place() is all-or-nothing per request, so scarcity shows up as an
  // unsatisfied hot slice: halve the ask until the advisor can host it
  // alongside the durable cold slice.
  while (true) {
    std::vector<api::PlacementRequest> reqs;
    reqs.push_back({.label = "tierkv-hot",
                    .bytes = want,
                    .needs_persistence = false,
                    .mlp = 4.0,
                    .read_fraction = 0.9,
                    .hotness = 10.0});
    reqs.push_back({.label = "tierkv-cold",
                    .bytes = working_set_bytes,
                    .needs_persistence = true,
                    .mlp = 8.0,
                    .read_fraction = 0.8,
                    .hotness = 1.0});
    const auto plan = rt.place(std::move(reqs));
    if (!plan.ok()) return want;  // no advisor view — keep the ask
    const api::PlacementDecision* hot = plan->find("tierkv-hot");
    if (hot != nullptr && hot->satisfied) return want;
    if (want <= kFloor) return kFloor;
    want /= 2;
  }
}

}  // namespace cxlpmem::tierkv

// service/durable_map.hpp — the durable hash map cxlpmemd serves and the
// kv_store example demonstrates, extracted so the two can never drift.
//
// A fixed-bucket chained hash table in the typed programming model:
// api::ptr<Entry> links, snapshot-on-write p<> fields, inline key+value
// payloads registered as fresh ranges (commit-flushed, zero undo entries).
// Every mutation is crash-atomic; the *_in_tx variants compose under a
// caller-owned transaction so a server worker can fold a whole request
// batch into one commit — acknowledge after run_tx returns and every
// acknowledged write is durable.
//
// The map operates on a pmemkit::ObjectPool& (non-owning) rather than an
// api::Pool so the crash simulator — which hands scenarios a raw pool —
// can sweep it directly; api::Pool callers pass pool.pmem().
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/ptr.hpp"
#include "pmemkit/checksum.hpp"
#include "pmemkit/evolve.hpp"
#include "pmemkit/pool.hpp"

namespace cxlpmem::service {

template <std::uint32_t Buckets = 256>
class BasicDurableMap {
 public:
  struct Entry {
    api::p<api::ptr<Entry>> next;
    api::p<std::uint32_t> key_len;
    api::p<std::uint32_t> value_len;
    // key bytes, then value bytes, follow inline (sized allocation).
  };

  struct Root {
    api::p<api::ptr<Entry>> buckets[Buckets];
    api::p<std::uint64_t> count;
    /// Never read.  Keys moved from FNV-1a to fingerprint64 buckets, and
    /// this word makes the root larger than the FNV-1a placement's, so a
    /// pool written under that placement is refused at open instead of
    /// the map looking its keys up in the wrong chains.
    api::p<std::uint64_t> placement_guard;
  };

  /// Binds to (and on first use roots) the map in `pool`.  Reopening a pool
  /// whose root was created as a different type throws
  /// PoolError(TypeMismatch) — the usual typed-root contract — and one
  /// whose root is smaller (a map written under the FNV-1a bucket
  /// placement) throws PoolError(BadAlloc).
  explicit BasicDurableMap(pmemkit::ObjectPool& pool)
      : pool_(&pool),
        root_(static_cast<Root*>(pool.direct(
            pool.root_raw(sizeof(Root), api::type_number<Root>())))) {}

  [[nodiscard]] pmemkit::ObjectPool& pool() noexcept { return *pool_; }
  [[nodiscard]] static constexpr std::uint32_t bucket_count() noexcept {
    return Buckets;
  }

  /// Crash-atomic insert-or-overwrite in its own transaction.
  void put(std::string_view key, std::string_view value) {
    pool_->run_tx([&] { put_in_tx(key, value); });
  }

  /// put() body for composition under a caller-owned transaction (one
  /// commit amortizes a batch of mutations on one lane).
  void put_in_tx(std::string_view key, std::string_view value) {
    const std::uint32_t b = bucket_of(key);
    erase_in_tx(key, b);  // idempotent overwrite
    const std::uint64_t bytes = sizeof(Entry) + key.size() + value.size();
    const pmemkit::ObjId oid =
        pool_->tx_alloc(bytes, api::type_number<Entry>(), /*zero=*/true);
    Entry* e = new (pool_->direct(oid)) Entry();
    // tx_alloc registered the allocation as a fresh range: commit flushes
    // it whole, and the payload writes and field stores below cost no undo
    // entries.
    e->next = root_->buckets[b];
    e->key_len = static_cast<std::uint32_t>(key.size());
    e->value_len = static_cast<std::uint32_t>(value.size());
    std::memcpy(payload(e), key.data(), key.size());
    std::memcpy(payload(e) + key.size(), value.data(), value.size());
    root_->buckets[b] = api::ptr<Entry>(oid);
    root_->count += 1;
  }

  // Chain walks resolve each node once (registry lookup, chunk lock, type
  // and liveness check) and follow `next` through the resolved pointer.

  [[nodiscard]] std::optional<std::string> get(std::string_view key) const {
    for (api::ptr<Entry> e = root_->buckets[bucket_of(key)]; e;) {
      const Entry* d = e.get();
      if (key_of(d) == key)
        return std::string(payload(d) + d->key_len, d->value_len);
      e = d->next;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool exists(std::string_view key) const {
    for (api::ptr<Entry> e = root_->buckets[bucket_of(key)]; e;) {
      const Entry* d = e.get();
      if (key_of(d) == key) return true;
      e = d->next;
    }
    return false;
  }

  /// Crash-atomic removal in its own transaction.
  bool erase(std::string_view key) {
    bool erased = false;
    pool_->run_tx([&] { erased = erase_in_tx(key); });
    return erased;
  }

  /// erase() body for composition under a caller-owned transaction.
  bool erase_in_tx(std::string_view key) {
    return erase_in_tx(key, bucket_of(key));
  }

  [[nodiscard]] std::uint64_t size() const { return root_->count; }

  /// Every owning reference slot in the map — bucket heads (inside the
  /// root) and entry `next` links — as the raw ObjId slots compact_pool
  /// rewrites.  The root object itself is deliberately absent: its direct
  /// pointer (root_) is cached for the map's lifetime, so it must never
  /// relocate.  Snapshot semantics: valid until the next mutation.
  [[nodiscard]] std::vector<pmemkit::ObjId*> collect_refs() {
    static_assert(sizeof(api::p<api::ptr<Entry>>) == sizeof(pmemkit::ObjId),
                  "ptr slots must be exactly ObjIds for defrag rewriting");
    std::vector<pmemkit::ObjId*> refs;
    refs.reserve(Buckets + root_->count);
    for (std::uint32_t b = 0; b < Buckets; ++b) {
      auto* link = &root_->buckets[b];
      while (!link->get().is_null()) {
        refs.push_back(reinterpret_cast<pmemkit::ObjId*>(link));
        link = &link->get().get()->next;
      }
    }
    return refs;
  }

  /// One defragmentation pass over the whole map (pmemkit::compact_pool
  /// with every slot the map owns).  Each entry moves inside its own
  /// crash-atomic transaction; the map stays consistent at every point.
  pmemkit::CompactReport compact(pmemkit::CompactOptions options = {}) {
    return pmemkit::compact_pool(*pool_, collect_refs(), options);
  }

 private:
  static char* payload(Entry* e) noexcept {
    return reinterpret_cast<char*>(e + 1);
  }
  static const char* payload(const Entry* e) noexcept {
    return reinterpret_cast<const char*>(e + 1);
  }
  static std::string_view key_of(const Entry* e) noexcept {
    return std::string_view(payload(e), e->key_len);
  }

  [[nodiscard]] static std::uint32_t bucket_of(std::string_view key) noexcept {
    return static_cast<std::uint32_t>(
        pmemkit::fingerprint64(key.data(), key.size()) % Buckets);
  }

  bool erase_in_tx(std::string_view key, std::uint32_t b) {
    api::p<api::ptr<Entry>>* link = &root_->buckets[b];
    while (!link->get().is_null()) {
      const api::ptr<Entry> e = *link;
      Entry* d = e.get();
      if (key_of(d) == key) {
        *link = d->next;             // snapshot-on-write unlink
        pool_->tx_free(e.oid());     // freed at commit; survives an abort
        root_->count -= 1;
        return true;
      }
      link = &d->next;
    }
    return false;
  }

  pmemkit::ObjectPool* pool_;
  Root* root_;  ///< direct pointer — valid while the bound pool stays open
};

/// The default instantiation the example and the daemon share.
using DurableMap = BasicDurableMap<>;

}  // namespace cxlpmem::service

// api/pool.hpp — Pool: a pmemkit ObjectPool bound to the MemorySpace it was
// opened through, carrying the typed persistent programming model.
//
// The same Pool surface runs unmodified whether the bytes live on emulated
// DRAM-PMem, the CXL expander, or a DCPMM model — the binding is the only
// difference, and it is inspectable (space()).  Typed entry points (root<T>,
// make<T>, destroy, for_each<T>) work in ptr<T>/p<T> terms so applications
// never touch raw ObjIds or direct() casts; the full low-level ObjectPool
// API stays reachable via pmem() / operator-> as the documented escape
// hatch, because inside a transaction pmemkit keeps its exception
// discipline (the crash simulator depends on it).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "api/memory_space.hpp"
#include "api/ptr.hpp"
#include "api/result.hpp"
#include "api/translate.hpp"
#include "pmemkit/evolve.hpp"
#include "pmemkit/pool.hpp"

namespace cxlpmem::api {

class Pool {
 public:
  Pool(MemorySpace space, std::unique_ptr<pmemkit::ObjectPool> impl)
      : space_(std::move(space)), impl_(std::move(impl)) {}

  Pool(Pool&&) = default;
  Pool& operator=(Pool&&) = default;

  // --- binding ---------------------------------------------------------------
  [[nodiscard]] const MemorySpace& space() const noexcept { return space_; }
  [[nodiscard]] bool durable() const noexcept { return space_.durable(); }

  // --- low-level access (the documented escape hatch) -------------------------
  [[nodiscard]] pmemkit::ObjectPool& pmem() noexcept { return *impl_; }
  [[nodiscard]] const pmemkit::ObjectPool& pmem() const noexcept {
    return *impl_;
  }
  pmemkit::ObjectPool* operator->() noexcept { return impl_.get(); }
  const pmemkit::ObjectPool* operator->() const noexcept {
    return impl_.get();
  }

  [[nodiscard]] bool recovered() const noexcept { return impl_->recovered(); }
  [[nodiscard]] std::string layout() const { return impl_->layout(); }

  /// Occupancy plus contention counters (lane waits, allocator run-lock
  /// skips/waits) — the signal a multi-threaded producer watches to decide
  /// whether the pool, not the workload, is the bottleneck — and, since
  /// the evolution work, fragmentation (heap.live_bytes / reserved_bytes /
  /// fragmentation), layout_version and the resize count.  Walks the whole
  /// heap; poll occupancy() instead.
  [[nodiscard]] pmemkit::PoolStats stats() const { return impl_->stats(); }

  /// live/reserved bytes and fragmentation in O(1), from the heap's running
  /// counters (the same values stats().heap walks for).
  [[nodiscard]] pmemkit::HeapOccupancy occupancy() const noexcept {
    return impl_->occupancy();
  }

  // --- online evolution ------------------------------------------------------
  // Resizing goes through Runtime::resize_pool, which charges the
  // namespace for the bytes a grow adds.

  /// Defragments the heap by relocating the objects owned by `refs` (each
  /// element points at the owning reference slot, which is rewritten inside
  /// the same transaction that moves its object — pmemobj_defrag's
  /// contract; ptr<T> slots are exactly ObjIds, so &p.oid()-style slots
  /// from containers plug in directly).
  [[nodiscard]] Result<pmemkit::CompactReport> compact(
      std::span<pmemkit::ObjId* const> refs,
      pmemkit::CompactOptions options = {}) {
    return wrap(
        [&] { return pmemkit::compact_pool(*impl_, refs, options); });
  }

  // --- typed programming model ------------------------------------------------
  /// Typed root object, allocated zeroed (and typed as T) on first use.
  /// Reopening a pool whose root was created as a different type comes back
  /// as Errc::TypeMismatch.
  template <typename T>
  [[nodiscard]] Result<ptr<T>> root() {
    static_assert(std::is_standard_layout_v<T>,
                  "persistent root types must be standard-layout (member "
                  "offsets must be pinned across toolchains)");
    return wrap([&] {
      return ptr<T>(impl_->root_raw(sizeof(T), type_number<T>()));
    });
  }

  /// Transactionally allocates and constructs a T (make_persistent
  /// equivalent).  Must be called inside run_tx — the allocation is freed
  /// automatically if the transaction aborts; outside a transaction it
  /// throws pmemkit::TxError(TxMisuse).  Throws rather than returning
  /// Result because inside a transaction the exception discipline is what
  /// aborts correctly (and simulated power cuts must unwind untouched).
  template <typename T, typename... Args>
  ptr<T> make(Args&&... args) {
    return make_sized<T>(sizeof(T), std::forward<Args>(args)...);
  }

  /// make<T> with an explicit usable size >= sizeof(T), for types that keep
  /// a variable payload inline after the struct (string entries, buffers).
  /// tx_alloc registers the whole usable range as fresh: writes into it
  /// (p<> fields, payload memcpy) are flushed by the transaction's commit
  /// and cost no undo-log entries — the AllocAction is the rollback.
  template <typename T, typename... Args>
  ptr<T> make_sized(std::uint64_t usable_bytes, Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "persistent objects are reclaimed by free, not by "
                  "destructor — T must be trivially destructible");
    if (usable_bytes < sizeof(T))
      throw pmemkit::AllocError(pmemkit::ErrKind::BadAlloc,
                                "make_sized: size below sizeof(T)");
    const pmemkit::ObjId oid =
        impl_->tx_alloc(usable_bytes, type_number<T>(), /*zero=*/true);
    new (impl_->direct(oid)) T(std::forward<Args>(args)...);
    return ptr<T>(oid);
  }

  /// Transactionally destroys a typed object (the free is deferred to
  /// commit; the object stays readable inside the transaction and survives
  /// an abort).  Must be called inside run_tx.
  template <typename T>
  void destroy(ptr<T> object) {
    if (object.is_null()) return;
    (void)impl_->direct_checked(object.oid(), type_number<T>());
    impl_->tx_free(object.oid());
  }

  /// Visits every live object of type T (typed POBJ_FIRST/NEXT iteration),
  /// calling fn(ptr<T>).
  template <typename T, typename F>
  void for_each(F&& fn) {
    for (pmemkit::ObjId o = impl_->first(type_number<T>()); !o.is_null();
         o = impl_->next(o, type_number<T>()))
      fn(ptr<T>(o));
  }

  /// Live objects of type T.
  template <typename T>
  [[nodiscard]] std::uint64_t count() {
    std::uint64_t n = 0;
    for_each<T>([&](ptr<T>) { ++n; });
    return n;
  }

  /// Runs `fn` inside a transaction, folding transaction failures into the
  /// Result channel.  A simulated power cut (pmemkit::CrashInjected) is not
  /// an error — it unwinds straight through to the crash harness.
  template <typename F>
  [[nodiscard]] Result<void> run_tx(F&& fn) {
    return wrap([&] { impl_->run_tx(std::forward<F>(fn)); });
  }

 private:
  MemorySpace space_;
  std::unique_ptr<pmemkit::ObjectPool> impl_;
};

}  // namespace cxlpmem::api

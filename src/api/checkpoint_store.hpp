// api/checkpoint_store.hpp — the facade's checkpoint/restart service.
//
// The paper's §1.2 headline use-case (periodic solver/diagnostic state that
// survives node failure) as a Result-based handle: double-buffered
// crash-atomic saves, allocation-free restarts via load_into(), and the
// same namespace-addressing as pools — obtained from
// Runtime::checkpoint_store(ns, file, max_bytes), so pointing a restart
// loop at emulated PMem instead of the CXL expander is one argument.
//
// Wraps core::CheckpointStore; the underlying store (and through it the
// pmemkit pool) stays reachable via core() for crash-harness code.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/result.hpp"
#include "api/translate.hpp"
#include "core/checkpoint.hpp"

namespace cxlpmem::api {

// Facade vocabulary for the incremental engine — applications never spell
// a core:: name.
using SaveMode = cxlpmem::core::SaveMode;
using SaveStats = cxlpmem::core::SaveStats;
using CheckpointOptions = cxlpmem::core::CheckpointOptions;

class CheckpointStore {
 public:
  explicit CheckpointStore(
      std::unique_ptr<cxlpmem::core::CheckpointStore> impl)
      : impl_(std::move(impl)) {}

  CheckpointStore(CheckpointStore&&) = default;
  CheckpointStore& operator=(CheckpointStore&&) = default;

  /// Atomically replaces the checkpoint: a crash at any instant leaves
  /// either the previous epoch or this one, never a torn mix.  Payloads
  /// above max_payload_bytes() come back as Errc::CapacityExceeded.
  /// Incremental by default — only chunks whose fingerprint changed since
  /// this slot was last sealed are rewritten; pass SaveMode::Full to force
  /// a complete rewrite.  Returns what the save moved.
  [[nodiscard]] Result<SaveStats> save(
      std::span<const std::byte> payload,
      SaveMode mode = SaveMode::Incremental) {
    return wrap([&] { return impl_->save(payload, mode); });
  }

  /// The latest payload as a fresh buffer (empty when nothing was saved).
  [[nodiscard]] Result<std::vector<std::byte>> load() const {
    return wrap([&] { return impl_->load(); });
  }

  /// Copies the latest payload into `dst` without allocating; returns the
  /// bytes written (0 when nothing was ever saved).  A too-small buffer is
  /// Errc::CapacityExceeded — size it with payload_bytes() or
  /// max_payload_bytes().
  [[nodiscard]] Result<std::uint64_t> load_into(
      std::span<std::byte> dst) const {
    return wrap([&] { return impl_->load_into(dst); });
  }

  /// Monotonic save counter (0 = nothing saved yet).
  [[nodiscard]] std::uint64_t epoch() const { return impl_->epoch(); }
  [[nodiscard]] bool has_checkpoint() const { return impl_->has_checkpoint(); }
  [[nodiscard]] std::uint64_t payload_bytes() const {
    return impl_->payload_bytes();
  }
  [[nodiscard]] std::uint64_t max_payload_bytes() const noexcept {
    return impl_->max_payload_bytes();
  }

  /// Effective incremental-engine chunk size (pinned into the pool at
  /// creation; reopens report the on-media value).
  [[nodiscard]] std::uint64_t chunk_size() const noexcept {
    return impl_->chunk_size();
  }

  /// Stats of the most recent save() on this handle (zeroes before one).
  [[nodiscard]] const SaveStats& last_save() const noexcept {
    return impl_->last_save();
  }

  /// True when the backing pool needed recovery at open (writer crashed).
  [[nodiscard]] bool recovered() const { return impl_->recovered(); }

  /// Escape hatch: the throwing core store (and its pmemkit pool).
  [[nodiscard]] cxlpmem::core::CheckpointStore& core() noexcept {
    return *impl_;
  }

 private:
  std::unique_ptr<cxlpmem::core::CheckpointStore> impl_;
};

}  // namespace cxlpmem::api

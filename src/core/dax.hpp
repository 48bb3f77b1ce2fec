// core/dax.hpp — emulated fsdax namespaces.
//
// On real hardware, `/mnt/pmem2` is an fsdax mount over a device-DAX
// namespace carved from the CXL expander.  Here a DaxNamespace binds a
// directory to one modelled memory device, enforcing:
//   * capacity — pool files cannot outgrow the device,
//   * identity — pools opened through the namespace are attributed to the
//     device (so STREAM placement and persistence checks agree),
//   * persistence discipline — creating a pool on a non-durable domain
//     requires the caller to opt in (the paper's emulated-PMem runs do).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "core/persist_domain.hpp"
#include "pmemkit/pmemkit.hpp"
#include "simkit/topology.hpp"

namespace cxlpmem::cxlsim {
class Type3Device;
}  // namespace cxlpmem::cxlsim

namespace cxlpmem::core {

/// Test seam: `observer` is invoked after every durability fsync the
/// namespace performs (import_file syncs the copied file, then its
/// directory).  The fsync-before-durable-report contract cannot be crash-
/// simulated against a real filesystem, so regression tests pin it by
/// observing the sync sequence instead; an observer that throws propagates
/// exactly like an fsync failure (used to test the cleanup path).  Pass {}
/// to clear; not thread-safe.
void set_sync_observer(
    std::function<void(const std::filesystem::path&)> observer);

class DaxNamespace {
 public:
  /// Binds `dir` (created if absent) to `memory` of `machine`.
  /// `emulated_pmem` marks DRAM-backed namespaces (pmem0/pmem1 style).
  /// The persistence domain is decided here, once: an attached `device`
  /// answers with its live battery state, otherwise the machine
  /// description is classified.
  DaxNamespace(std::string name, std::filesystem::path dir,
               const simkit::Machine& machine, simkit::MemoryId memory,
               bool emulated_pmem,
               const cxlsim::Type3Device* device = nullptr);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return dir_;
  }
  [[nodiscard]] simkit::MemoryId memory() const noexcept { return memory_; }
  [[nodiscard]] PersistenceDomain domain() const noexcept { return domain_; }
  [[nodiscard]] bool durable() const noexcept {
    return core::durable(domain_);
  }

  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t available_bytes() const noexcept {
    return capacity_ > used_ ? capacity_ - used_ : 0;
  }

  /// Creates a pool file inside the namespace.  Throws pmemkit::PoolError
  /// when capacity would be exceeded, or when the domain is not durable and
  /// `allow_volatile` is false.
  std::unique_ptr<pmemkit::ObjectPool> create_pool(
      const std::string& file, std::string_view layout, std::uint64_t size,
      bool allow_volatile = false,
      pmemkit::PoolOptions options = pmemkit::PoolOptions());

  /// Opens an existing pool file of this namespace.
  std::unique_ptr<pmemkit::ObjectPool> open_pool(
      const std::string& file, std::string_view layout,
      pmemkit::PoolOptions options = pmemkit::PoolOptions());

  /// Resizes an open pool that lives in this namespace, enforcing device
  /// capacity on grow and reclaiming it on shrink.  Forwards to
  /// pmemkit::ObjectPool::resize (same quiesce/crash-safety contract); the
  /// accounting uses the pool's actual size afterwards, since a shrink
  /// rounds up to a heap-span boundary.
  void resize_pool(pmemkit::ObjectPool& pool, std::uint64_t new_size);

  /// Deletes a pool file, reclaiming capacity.
  void remove_pool(const std::string& file);

  /// Copies an external file into the namespace as `file`, enforcing
  /// capacity (used by pool migration).  Returns the destination path.
  std::filesystem::path import_file(const std::filesystem::path& src,
                                    const std::string& file);

  /// True when `file` exists in this namespace.
  [[nodiscard]] bool pool_exists(const std::string& file) const;

 private:
  [[nodiscard]] std::filesystem::path file_path(const std::string& file)
      const;
  void rescan_used();

  std::string name_;
  std::filesystem::path dir_;
  simkit::MemoryId memory_;
  PersistenceDomain domain_;
  std::uint64_t capacity_ = 0;
  std::uint64_t used_ = 0;
};

}  // namespace cxlpmem::core

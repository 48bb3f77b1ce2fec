#include "core/dax.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "cxlsim/device.hpp"
#include "pmemkit/faultkit.hpp"

namespace cxlpmem::core {

namespace {

std::function<void(const std::filesystem::path&)> g_sync_observer;

/// fsync `p` (a file, or a directory when `directory`) so the bytes — or
/// the directory entry — are on media before we claim durability.
void sync_path(const std::filesystem::path& p, bool directory) {
  // Injected before the open: a failed sync must look exactly like a
  // failing device (no partial durability claim), and the import path
  // already rolls back on any throw from here.
  pmemkit::fault_point(pmemkit::FaultSite::Sync, "fsync " + p.string());
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(p.c_str(), flags);
  if (fd < 0)
    throw pmemkit::PoolError(pmemkit::ErrKind::Io,
                             "cannot open " + p.string() +
                                 " for fsync: " + std::strerror(errno));
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw pmemkit::PoolError(pmemkit::errno_kind(err),
                             "fsync " + p.string() + ": " +
                                 std::strerror(err));
  }
  ::close(fd);
  if (g_sync_observer) g_sync_observer(p);
}

/// A namespace's one persistence-domain decision: an attached device
/// answers with its battery state, otherwise the machine description
/// decides.
PersistenceDomain domain_of(const simkit::MemoryDesc& mem, bool emulated_pmem,
                            const cxlsim::Type3Device* device) {
  if (device == nullptr) return classify(mem, emulated_pmem);
  return device->persistence_domain() ? PersistenceDomain::BatteryBackedDevice
                                      : PersistenceDomain::Volatile;
}

}  // namespace

void set_sync_observer(
    std::function<void(const std::filesystem::path&)> observer) {
  g_sync_observer = std::move(observer);
}

DaxNamespace::DaxNamespace(std::string name, std::filesystem::path dir,
                           const simkit::Machine& machine,
                           simkit::MemoryId memory, bool emulated_pmem,
                           const cxlsim::Type3Device* device)
    : name_(std::move(name)),
      dir_(std::move(dir)),
      memory_(memory),
      domain_(domain_of(machine.memory(memory), emulated_pmem, device)),
      capacity_(machine.memory(memory).capacity_bytes) {
  std::filesystem::create_directories(dir_);
  rescan_used();
}

void DaxNamespace::rescan_used() {
  used_ = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    if (entry.is_regular_file())
      used_ += static_cast<std::uint64_t>(entry.file_size());
}

std::filesystem::path DaxNamespace::file_path(const std::string& file) const {
  if (file.empty() || file.find('/') != std::string::npos)
    throw pmemkit::PoolError(pmemkit::ErrKind::BadName,
                             "pool file name must be a plain file name");
  return dir_ / file;
}

std::unique_ptr<pmemkit::ObjectPool> DaxNamespace::create_pool(
    const std::string& file, std::string_view layout, std::uint64_t size,
    bool allow_volatile, pmemkit::PoolOptions options) {
  if (!durable() && !allow_volatile)
    throw pmemkit::PoolError(
        pmemkit::ErrKind::NotDurable,
        "namespace '" + name_ + "' is " + to_string(domain_) +
            " — pass allow_volatile to create pools on it anyway");
  if (size > available_bytes())
    throw pmemkit::PoolError(pmemkit::ErrKind::CapacityExceeded,
                             "namespace '" + name_ +
                                 "' out of capacity: need " +
                                 std::to_string(size) + ", available " +
                                 std::to_string(available_bytes()));
  pmemkit::FileResource resource(file_path(file));
  pmemkit::FaultyResource faulty(resource);
  pmemkit::PmemResource& backend =
      pmemkit::faults_armed()
          ? static_cast<pmemkit::PmemResource&>(faulty)
          : static_cast<pmemkit::PmemResource&>(resource);
  auto pool = pmemkit::ObjectPool::create(backend, layout, size, options);
  used_ += size;
  return pool;
}

std::unique_ptr<pmemkit::ObjectPool> DaxNamespace::open_pool(
    const std::string& file, std::string_view layout,
    pmemkit::PoolOptions options) {
  pmemkit::FileResource resource(file_path(file));
  pmemkit::FaultyResource faulty(resource);
  pmemkit::PmemResource& backend =
      pmemkit::faults_armed()
          ? static_cast<pmemkit::PmemResource&>(faulty)
          : static_cast<pmemkit::PmemResource&>(resource);
  return pmemkit::ObjectPool::open(backend, layout, options);
}

void DaxNamespace::resize_pool(pmemkit::ObjectPool& pool,
                               std::uint64_t new_size) {
  const std::uint64_t before = pool.size();
  if (new_size > before && new_size - before > available_bytes())
    throw pmemkit::PoolError(pmemkit::ErrKind::CapacityExceeded,
                             "namespace '" + name_ +
                                 "' out of capacity: resize needs " +
                                 std::to_string(new_size - before) +
                                 " more bytes, available " +
                                 std::to_string(available_bytes()));
  pool.resize(new_size);
  const std::uint64_t after = pool.size();
  if (after >= before)
    used_ += after - before;
  else
    used_ -= std::min<std::uint64_t>(used_, before - after);
}

void DaxNamespace::remove_pool(const std::string& file) {
  const std::filesystem::path p = file_path(file);
  if (!std::filesystem::exists(p))
    throw pmemkit::PoolError(pmemkit::ErrKind::PoolNotFound,
                             "namespace '" + name_ + "' has no pool file '" +
                                 file + "'");
  std::error_code ec;
  const auto size = std::filesystem::file_size(p, ec);
  if (!std::filesystem::remove(p, ec) || ec)
    throw pmemkit::PoolError(pmemkit::ErrKind::Io,
                             "cannot remove pool " + p.string());
  used_ -= std::min<std::uint64_t>(used_, size);
}

bool DaxNamespace::pool_exists(const std::string& file) const {
  return std::filesystem::exists(file_path(file));
}

std::filesystem::path DaxNamespace::import_file(
    const std::filesystem::path& src, const std::string& file) {
  const std::filesystem::path to = file_path(file);
  if (std::filesystem::exists(to))
    throw pmemkit::PoolError(pmemkit::ErrKind::PoolExists,
                             "namespace already has a file named " + file);
  const auto size =
      static_cast<std::uint64_t>(std::filesystem::file_size(src));
  if (size > available_bytes())
    throw pmemkit::PoolError(pmemkit::ErrKind::CapacityExceeded,
                             "namespace '" + name_ +
                                 "' out of capacity for import of " + file);
  std::filesystem::copy_file(src, to);
  // copy_file leaves the bytes in the page cache; a migration reported as
  // durable must survive a power cut, so sync the file contents AND the
  // directory entry (the rename/creation is not durable until its parent
  // directory is) before returning.  A failed sync removes the copy: the
  // import either completes durably or leaves no trace — an orphan would
  // wedge every retry on PoolExists and dodge capacity accounting.
  try {
    sync_path(to, /*directory=*/false);
    sync_path(dir_, /*directory=*/true);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(to, ec);
    throw;
  }
  used_ += size;
  return to;
}

}  // namespace cxlpmem::core

#include "api/runtime.hpp"

#include <algorithm>
#include <utility>

#include "api/translate.hpp"
#include "numakit/affinity.hpp"

namespace cxlpmem::api {

namespace {

Error unknown_namespace(std::string_view name) {
  return Error{Errc::UnknownNamespace,
               "no namespace named '" + std::string(name) + "'"};
}

/// Exposing DRAM as an emulated-PMem namespace was the operator's explicit
/// opt-in (the paper's pmem0/pmem1 mounts); only *plain volatile* spaces
/// still require allow_volatile.
bool volatile_allowed(const PoolSpec& spec, const MemorySpace& s) {
  return spec.allow_volatile || s.kind == ExposureKind::EmulatedPmem;
}

pmemkit::PoolOptions options_of(const PoolSpec& spec) {
  pmemkit::PoolOptions options;
  options.track_shadow = spec.track_shadow;
  options.migrate = spec.migrate;
  options.pmemcheck = spec.pmemcheck;
  return options;
}

}  // namespace

std::vector<std::string> Runtime::namespaces() const {
  std::vector<std::string> names;
  names.reserve(state_->namespaces.size());
  for (const auto& [name, entry] : state_->namespaces) names.push_back(name);
  return names;
}

Runtime::Namespace* Runtime::find(std::string_view name) const {
  const auto it = state_->namespaces.find(name);
  return it == state_->namespaces.end() ? nullptr : &it->second;
}

std::string Runtime::default_file(std::string_view layout) {
  return std::string(layout) + ".pool";
}

Result<MemorySpace> Runtime::space(std::string_view name) const {
  const Namespace* entry = find(name);
  if (entry == nullptr) return unknown_namespace(name);
  return entry->space;
}

cxlsim::Type3Device* Runtime::device(std::string_view ns) {
  const Namespace* entry = find(ns);
  if (entry == nullptr) return nullptr;
  const auto it = state_->devices.find(entry->space.memory);
  return it == state_->devices.end() ? nullptr : it->second.get();
}

Result<Pool> Runtime::create_pool(std::string_view ns,
                                  std::string_view layout, PoolSpec spec) {
  Namespace* entry = find(ns);
  if (entry == nullptr) return unknown_namespace(ns);

  const std::string file =
      spec.file.empty() ? default_file(layout) : spec.file;
  const std::uint64_t size =
      spec.size != 0 ? spec.size : pmemkit::ObjectPool::min_pool_size();

  // Everything below may throw (bad file name, capacity, EEXIST -> the
  // PoolExists kind from MappedFile) — keep it all inside wrap().
  return wrap([&] {
    return Pool(entry->space,
                entry->dax.create_pool(file, layout, size,
                                       volatile_allowed(spec, entry->space),
                                       options_of(spec)));
  });
}

Result<Pool> Runtime::open_pool(std::string_view ns, std::string_view layout,
                                PoolSpec spec) {
  Namespace* entry = find(ns);
  if (entry == nullptr) return unknown_namespace(ns);

  const std::string file =
      spec.file.empty() ? default_file(layout) : spec.file;
  // ENOENT surfaces as the PoolNotFound kind from MappedFile::open.
  return wrap([&] {
    return Pool(entry->space,
                entry->dax.open_pool(file, layout, options_of(spec)));
  });
}

Result<Pool> Runtime::open_or_create_pool(std::string_view ns,
                                          std::string_view layout,
                                          PoolSpec spec) {
  // Try-open-with-fallback rather than exists()-then-act: two callers
  // racing on a fresh pool must both end up with a handle, not one of them
  // with a spurious PoolExists.
  Result<Pool> opened = open_pool(ns, layout, spec);
  if (opened.ok() || opened.error().code != Errc::PoolNotFound)
    return opened;
  Result<Pool> created = create_pool(ns, layout, spec);
  if (created.ok() || created.error().code != Errc::PoolExists)
    return created;
  return open_pool(ns, layout, std::move(spec));  // lost the create race
}

Result<bool> Runtime::pool_exists(std::string_view ns,
                                  std::string_view file) const {
  const Namespace* entry = find(ns);
  if (entry == nullptr) return unknown_namespace(ns);
  return wrap([&] { return entry->dax.pool_exists(std::string(file)); });
}

Result<void> Runtime::remove_pool(std::string_view ns,
                                  std::string_view file) {
  Namespace* entry = find(ns);
  if (entry == nullptr) return unknown_namespace(ns);
  return wrap([&] { entry->dax.remove_pool(std::string(file)); });
}

Result<void> Runtime::resize_pool(Pool& pool, std::uint64_t new_size) {
  Namespace* entry = find(pool.space().name);
  if (entry == nullptr) return unknown_namespace(pool.space().name);
  return wrap([&] { entry->dax.resize_pool(pool.pmem(), new_size); });
}

Result<std::string> Runtime::namespace_for(simkit::MemoryId memory) const {
  for (const auto& [name, entry] : state_->namespaces)
    if (entry.space.memory == memory) return name;
  return Error{Errc::UnknownNamespace,
               "no namespace exposes memory device " +
                   std::to_string(memory)};
}

Result<CheckpointStore> Runtime::checkpoint_store(
    std::string_view ns, const std::string& file,
    std::uint64_t max_payload_bytes, PoolSpec spec) {
  CheckpointSpec cp;
  cp.pool = std::move(spec);
  cp.threads = 1;  // legacy overload: saves stay on the calling thread
  return checkpoint_store(ns, file, max_payload_bytes, cp);
}

Result<CheckpointStore> Runtime::checkpoint_store(
    std::string_view ns, const std::string& file,
    std::uint64_t max_payload_bytes, const CheckpointSpec& spec) {
  Namespace* entry = find(ns);
  if (entry == nullptr) return unknown_namespace(ns);
  cxlpmem::core::CheckpointOptions options;
  options.chunk_size = spec.chunk_size;
  const numakit::NumaTopology& topo = state_->topology;
  options.affinity =
      numakit::nearest_cpus(topo, topo.node_of_memory(entry->space.memory));
  options.threads =
      spec.threads != 0
          ? spec.threads
          : std::min<int>(4, static_cast<int>(options.affinity.size()));
  return wrap([&] {
    return CheckpointStore(std::make_unique<cxlpmem::core::CheckpointStore>(
        entry->dax, file, max_payload_bytes,
        volatile_allowed(spec.pool, entry->space), options_of(spec.pool),
        std::move(options)));
  });
}

Result<MigrationReport> Runtime::migrate_pool(std::string_view src_ns,
                                              std::string_view dst_ns,
                                              const std::string& file,
                                              std::string_view layout) {
  Namespace* src = find(src_ns);
  if (src == nullptr) return unknown_namespace(src_ns);
  Namespace* dst = find(dst_ns);
  if (dst == nullptr) return unknown_namespace(dst_ns);
  return wrap([&] {
    return cxlpmem::core::migrate_pool(src->dax, dst->dax, file, layout);
  });
}

std::vector<Tier> Runtime::tiers(simkit::SocketId viewpoint_socket) const {
  return cxlpmem::core::TierAdvisor(state_->machine, viewpoint_socket,
                                    state_->domains)
      .tiers();
}

Result<PlacementPlan> Runtime::place(std::vector<PlacementRequest> requests,
                                     simkit::SocketId viewpoint_socket) const {
  return wrap([&] {
    return cxlpmem::core::TierAdvisor(state_->machine, viewpoint_socket,
                                      state_->domains)
        .plan(std::move(requests));
  });
}

}  // namespace cxlpmem::api

// api/runtime.hpp — the facade Runtime: namespace-addressed pools over a
// modelled machine.
//
// Built by RuntimeBuilder (api/runtime_builder.hpp), never constructed
// directly.  Every pool operation is addressed by *namespace name* — the
// paper's migration story ("Optane -> CXL is a namespace choice") is
// literally one argument here:
//
//   auto pool = rt.create_pool("pmem2", "kv");      // CXL-backed
//   auto pool = rt.create_pool("pmem0", "kv");      // emulated DRAM-PMem
//
// Entry points return Result<T>.  The runtime holds the machine, its NUMA
// view, the attached CXL devices and one entry per namespace: the
// MemorySpace handed to applications and the DaxNamespace that enforces
// capacity and durability, both built once by RuntimeBuilder::build().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/checkpoint_store.hpp"
#include "api/memory_space.hpp"
#include "api/pool.hpp"
#include "api/result.hpp"
#include "core/dax.hpp"
#include "core/migrate.hpp"
#include "core/tiering.hpp"
#include "cxlsim/device.hpp"
#include "numakit/numa_topology.hpp"

namespace cxlpmem::api {

// The facade vocabulary for the placement and migration services — aliases
// so applications say api::PlacementRequest and never spell a core:: name.
using Tier = cxlpmem::core::Tier;
using PlacementRequest = cxlpmem::core::PlacementRequest;
using PlacementDecision = cxlpmem::core::PlacementDecision;
using PlacementPlan = cxlpmem::core::PlacementPlan;
using MigrationReport = cxlpmem::core::MigrationReport;
using PersistenceDomain = cxlpmem::core::PersistenceDomain;

/// Options for create_pool / open_pool.  Defaults make the quickstart a
/// one-liner; everything is overridable.
struct PoolSpec {
  /// Pool file inside the namespace.  Empty -> "<layout>.pool".
  std::string file;
  /// Pool size on create.  0 -> ObjectPool::min_pool_size().
  std::uint64_t size = 0;
  /// Permit pools on a *plain volatile* namespace.  Emulated-PMem
  /// namespaces never need this: exposing DRAM as pmem0/pmem1 was already
  /// the operator's opt-in, exactly like the paper's emulated mounts.
  bool allow_volatile = false;
  /// Maintain the persistence model's crash image, without the PmemSan
  /// rules (slower; for tests).
  bool track_shadow = false;
  /// Open-time layout upgrade: a version-1 pool image (or one carrying an
  /// interrupted migration marker) is migrated in place to the current
  /// layout before the open completes.  Without it such images come back
  /// as Errc::VersionMismatch / Errc::PoolCorrupt.
  bool migrate = false;
  /// Attach PmemSan, the runtime persistency sanitizer: flush/fence
  /// discipline violations surface through the configured ViolationSink
  /// (throwing by default, so they come back as
  /// Errc::PersistencyViolation).  CXLPMEM_PMEMCHECK=1 enables it
  /// process-wide without touching specs.
  bool pmemcheck = false;
};

/// Options for checkpoint_store: the pool spec plus the incremental
/// engine's knobs.  `chunk_size` is the dirty-tracking granularity
/// (default one 4 KiB page; rounded to 4 KiB, pinned into the pool at
/// creation, so an existing pool keeps its own); `threads` sizes the save
/// worker pool (0 = NUMA-aware default, 1 = saves stay on the caller).
struct CheckpointSpec {
  PoolSpec pool;
  std::uint64_t chunk_size = cxlpmem::core::kDefaultCheckpointChunk;
  int threads = 0;
};

class Runtime {
 public:
  // The state stays put when a Runtime moves: the topology points into the
  // machine, and references from machine() or topology() stay valid.
  Runtime(Runtime&&) = default;
  Runtime& operator=(Runtime&&) = default;

  // --- machine & namespaces --------------------------------------------------
  [[nodiscard]] const simkit::Machine& machine() const noexcept {
    return state_->machine;
  }
  /// NUMA view of the machine (numactl -H equivalent).
  [[nodiscard]] const numakit::NumaTopology& topology() const noexcept {
    return state_->topology;
  }
  /// Namespace names, ascending ("pmem0", "pmem1", "pmem2").
  [[nodiscard]] std::vector<std::string> namespaces() const;
  /// The MemorySpace handle behind a namespace name.
  [[nodiscard]] Result<MemorySpace> space(std::string_view name) const;
  /// The modelled CXL device attached behind a namespace (its mailbox,
  /// LSA and battery state), or nullptr when none is attached.
  [[nodiscard]] cxlsim::Type3Device* device(std::string_view ns);
  /// The namespace backed by a machine memory device — the bridge from a
  /// PlacementDecision::memory back into pool/checkpoint addressing.
  [[nodiscard]] Result<std::string> namespace_for(
      simkit::MemoryId memory) const;

  // --- pools -----------------------------------------------------------------
  [[nodiscard]] Result<Pool> create_pool(std::string_view ns,
                                         std::string_view layout,
                                         PoolSpec spec = PoolSpec());
  [[nodiscard]] Result<Pool> open_pool(std::string_view ns,
                                       std::string_view layout,
                                       PoolSpec spec = PoolSpec());
  /// pmemobj_create-or-open: open when the file exists, else create.
  [[nodiscard]] Result<Pool> open_or_create_pool(std::string_view ns,
                                                 std::string_view layout,
                                                 PoolSpec spec = PoolSpec());
  [[nodiscard]] Result<bool> pool_exists(std::string_view ns,
                                         std::string_view file) const;
  [[nodiscard]] Result<void> remove_pool(std::string_view ns,
                                         std::string_view file);
  /// The facade's one live resize (pmemkit::ObjectPool::resize semantics),
  /// routed through the pool's namespace: a grow past the namespace's
  /// remaining bytes is Errc::CapacityExceeded *before* anything durable
  /// happens, and the used-byte accounting tracks the actual size delta.
  /// pool.pmem().resize() is the escape hatch that skips this accounting.
  [[nodiscard]] Result<void> resize_pool(Pool& pool, std::uint64_t new_size);

  // --- checkpoint/restart ----------------------------------------------------
  /// Double-buffered crash-atomic checkpoint store on namespace `ns`, sized
  /// for payloads up to `max_payload_bytes`.  This overload keeps saves on
  /// the calling thread (threads = 1) — the conservative legacy behaviour.
  [[nodiscard]] Result<CheckpointStore> checkpoint_store(
      std::string_view ns, const std::string& file,
      std::uint64_t max_payload_bytes, PoolSpec spec = PoolSpec());

  /// checkpoint_store with the incremental-engine knobs.  `threads == 0`
  /// picks a NUMA-aware default: up to four workers labelled with the cores
  /// of the namespace's NUMA node (or the nearest node with CPUs for a
  /// CPU-less CXL node) — multi-threaded streams are what saturate CXL
  /// bandwidth, and crossing sockets to reach the device wastes them.
  [[nodiscard]] Result<CheckpointStore> checkpoint_store(
      std::string_view ns, const std::string& file,
      std::uint64_t max_payload_bytes, const CheckpointSpec& spec);

  // --- migration -------------------------------------------------------------
  /// Migrates pool `file` (layout `layout`) from namespace `src_ns` to
  /// `dst_ns` — the paper's Optane→CXL scenario (ref [22]) as one call.
  /// The source is left intact; the report says what changed about
  /// durability (a volatile destination is legal but flagged).
  [[nodiscard]] Result<MigrationReport> migrate_pool(std::string_view src_ns,
                                                     std::string_view dst_ns,
                                                     const std::string& file,
                                                     std::string_view layout);

  // --- data placement (hybrid tiering, paper §6) -----------------------------
  /// Every memory device as a placement tier, probed from
  /// `viewpoint_socket` with the machine's bandwidth model.  A tier is
  /// durable exactly when its namespace is.
  [[nodiscard]] std::vector<Tier> tiers(
      simkit::SocketId viewpoint_socket = 0) const;
  /// Places requests (hotness-descending) across the tiers, honouring
  /// capacity and durability constraints.
  [[nodiscard]] Result<PlacementPlan> place(
      std::vector<PlacementRequest> requests,
      simkit::SocketId viewpoint_socket = 0) const;

 private:
  friend class RuntimeBuilder;

  /// One namespace: the handle applications see and the namespace that
  /// enforces capacity and durability for it.
  struct Namespace {
    MemorySpace space;
    cxlpmem::core::DaxNamespace dax;
  };
  struct State {
    simkit::Machine machine;
    numakit::NumaTopology topology;  ///< points into `machine`
    std::map<simkit::MemoryId, std::shared_ptr<cxlsim::Type3Device>> devices;
    std::map<std::string, Namespace, std::less<>> namespaces;
    /// Per memory: its namespace's domain, else classify() (for placement).
    std::vector<PersistenceDomain> domains;
  };

  explicit Runtime(std::unique_ptr<State> state) : state_(std::move(state)) {}

  [[nodiscard]] Namespace* find(std::string_view name) const;
  [[nodiscard]] static std::string default_file(std::string_view layout);

  std::unique_ptr<State> state_;
};

}  // namespace cxlpmem::api

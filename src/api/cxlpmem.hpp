// api/cxlpmem.hpp — the public facade of the CXL-as-PMem runtime.
//
// One include gives an application the whole programming model the paper
// argues for (Fridman et al., SC'23): describe a machine with
// RuntimeBuilder, get namespaces ("pmem0", "pmem1", "pmem2"), and open
// PMDK-style pools *by namespace name* — so moving a workload from emulated
// DRAM-PMem to a CXL expander (or any future backend) is a one-argument
// change.  On top of pools sits the typed object model (ptr<T> / p<T> /
// make<T>, api/ptr.hpp) and the service surface for every scenario the
// repo models: checkpoint/restart (Runtime::checkpoint_store), pool
// migration between tiers (Runtime::migrate_pool), and hybrid data
// placement (Runtime::tiers / place).  Entry points return Result<T>
// instead of throwing; the unified Errc taxonomy spans pool, allocator,
// transaction, device and configuration failures.
//
//   #include "api/cxlpmem.hpp"
//   using namespace cxlpmem;
//
//   auto rt = api::RuntimeBuilder::setup_one().base_dir(dir).build();
//   if (!rt) { /* rt.error().to_string() */ }
//   auto pool = rt->open_or_create_pool("pmem2", "kv");
//   auto st = pool->run_tx([&] { /* transactional mutation */ });
//
// Layering: api (the Runtime and its builder) -> core (namespaces,
// checkpoints, migration, placement) -> pmemkit (pools/transactions) +
// cxlsim (device model) + numakit + simkit (machine model).  Exceptions survive only below the facade line, where
// the crash simulator needs them (pmemkit::CrashInjected unwinds through
// everything by design).
#pragma once

#include "api/checkpoint_store.hpp" // IWYU pragma: export
#include "api/memory_space.hpp"     // IWYU pragma: export
#include "api/pool.hpp"             // IWYU pragma: export
#include "api/ptr.hpp"              // IWYU pragma: export
#include "api/result.hpp"           // IWYU pragma: export
#include "api/runtime.hpp"          // IWYU pragma: export
#include "api/runtime_builder.hpp"  // IWYU pragma: export

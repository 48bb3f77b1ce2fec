// pmemkit/pmemkit.hpp — umbrella header: the full persistent-memory
// programming model (PMDK libpmemobj workalike).
//
// Quick tour:
//   ObjectPool::create / open     — pmemobj_create / pmemobj_open
//   pool.root<T>()                — pmemobj_root + TOID
//   pool.alloc_atomic / free_atomic — POBJ_ALLOC / POBJ_FREE
//   pool.run_tx([...]{ ... })     — TX_BEGIN/TX_END
//   pool.tx_add_range / tx_alloc / tx_free — pmemobj_tx_*
//   pool.persist / flush / drain  — libpmem primitives
//   CrashSimulator                — exhaustive power-failure testing
#pragma once

#include "pmemkit/crash_hook.hpp"   // IWYU pragma: export
#include "pmemkit/crash_sim.hpp"    // IWYU pragma: export
#include "pmemkit/errors.hpp"       // IWYU pragma: export
#include "pmemkit/heap.hpp"         // IWYU pragma: export
#include "pmemkit/oid.hpp"          // IWYU pragma: export
#include "pmemkit/pmemsan.hpp"      // IWYU pragma: export
#include "pmemkit/pool.hpp"         // IWYU pragma: export
#include "pmemkit/tx.hpp"           // IWYU pragma: export

// core/core.hpp — umbrella header for the CXL-as-PMem core: DAX
// namespaces and their persistence domains, checkpoint/restart, pool
// migration and tier placement.  The runtime that wires them to a machine
// is api::Runtime (api/runtime.hpp).
#pragma once

#include "core/checkpoint.hpp"      // IWYU pragma: export
#include "core/dax.hpp"             // IWYU pragma: export
#include "core/migrate.hpp"         // IWYU pragma: export
#include "core/persist_domain.hpp"  // IWYU pragma: export
#include "core/tiering.hpp"         // IWYU pragma: export

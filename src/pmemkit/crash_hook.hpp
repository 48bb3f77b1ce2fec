// pmemkit/crash_hook.hpp — crash-point instrumentation.
//
// The library calls crash_point("name") between every pair of persistence-
// ordering-relevant operations (log append / flush / fence / state change).
// Tests install a hook that throws CrashInjected at the N-th point, then
// take the pool's crash image from its persistence model and verify
// recovery.  With
// no hook installed the call is a single relaxed load.
#pragma once

#include <functional>
#include <string_view>

namespace cxlpmem::pmemkit {

using CrashHook = std::function<void(std::string_view point)>;

/// Installs `hook` (empty = disable).  Not thread-safe against concurrent
/// pool use — crash tests are single-threaded by design.
void set_crash_hook(CrashHook hook);

/// True when a hook is installed.
[[nodiscard]] bool crash_hook_installed() noexcept;

/// Fires the hook, if any.
void crash_point(std::string_view point);

}  // namespace cxlpmem::pmemkit

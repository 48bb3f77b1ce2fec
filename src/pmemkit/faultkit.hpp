// pmemkit/faultkit.hpp — deterministic media- and link-fault injection.
//
// Disaggregation means the media and the link fail independently of the
// host: an EIO from the mapping, an ENOSPC mid-resize, a torn cacheline
// that only a checksum will catch, a connection reset mid-frame.
// CrashSimulator answers "what if power dies HERE"; faultkit answers "what
// if the media or the link lies HERE" — with the same determinism
// contract: a FaultPlan is a pure function of its DSL string and seeds, so
// any failing injection sequence replays exactly from the seed printed by
// the harness that found it.
//
// The library crosses a fault_point() at every media operation that can
// fail on real hardware, and the service layer at every socket syscall:
//
//   site       where                                   injectable kinds
//   ---------  -------------------------------------   -----------------
//   create     PmemResource::map_create (pool birth)   eio enospc short
//   open       PmemResource::map_open   (pool open)    eio flip
//   resize     MappedFile::resize       (grow/shrink)  eio enospc
//   sync       core fsync paths         (import/ckpt)  eio enospc
//   serve      cxlpmemd shard batch loop               eio corrupt stall
//   send       service::net_send                       drop partial stall reset
//   recv       service::net_recv                       partial stall reset
//   connect    service::net_connect                    stall reset
//
// Simple kinds (eio / enospc / corrupt) throw a typed PoolError at the
// site, BEFORE any side effect, so the caller sees exactly the error a
// failing device would produce and retry-after-clear is clean.  stall
// sleeps (overload and latency-spike modeling) until its time is up or
// clear_faults() ends it.  The other kinds need the call site's
// cooperation — fault_point returns them as an action: FaultyResource
// (the PmemResource decorator below) applies short and flip: a short
// create materializes a truncated backing store then errors out and
// cleans up; a flip XORs one byte of the freshly-mapped image ("torn
// media"), so the open-time checksum path is exercised end to end.  A
// flip is durable corruption by design — recovery is restoring the byte,
// not retrying.  The socket shims (service/net_fault.hpp) apply drop
// (report success, send nothing), partial (move 1 byte) and reset
// (ECONNRESET; ECONNREFUSED at connect; with +B the connection dies after
// exactly B more bytes).
//
// Arming is process-global (one injector, mutex-guarded, shared by every
// pool and the service layer); a disarmed fault_point is a single relaxed
// atomic load, the same bargain crash_point() strikes.
//
// DSL (CXLPMEM_FAULTS): entries separated by ';'
//   <site>:<kind>@<n>          fire on the n-th crossing of <site> (1-based)
//   <site>:<kind>@<n>+<arg>    arg = flip byte offset / stall milliseconds /
//                              reset byte budget
//   random:seed=<s>,rate=<ppm>[,sites=<site>|<site>...][,stall=<ms>]
//       per-crossing Bernoulli injection, deterministic in <s>; sites
//       default to all eight.  The kind is drawn per site: eio/enospc at
//       create/resize/sync, eio at open, eio/corrupt/stall at serve,
//       stall/reset at the link sites (flip, short, drop and partial are
//       never drawn randomly — they are opt-in only).  A plan may hold
//       several random entries, each with its own seed, rate and stall;
//       no two may name the same site.
// CXLPMEM_FAULT_SEED overrides every random entry's seed without editing
// the DSL.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pmemkit/errors.hpp"
#include "pmemkit/resource.hpp"

namespace cxlpmem::pmemkit {

enum class FaultSite : std::uint8_t {
  MapCreate, MapOpen, Resize, Sync, Serve, Send, Recv, Connect
};
enum class FaultKind : std::uint8_t {
  Eio,        ///< PoolError(ErrKind::Io), as a failing device reports
  Enospc,     ///< PoolError(ErrKind::OutOfSpace), media out of capacity
  ShortWrite, ///< backing store materializes truncated, then errors out
  BitFlip,    ///< one byte of the mapped image XORed ("torn media")
  Corrupt,    ///< PoolError(ErrKind::CorruptImage) — checksum-path failure
  Stall,      ///< the operation sleeps (latency spike / overload)
  Drop,       ///< the send reports success, the peer never sees the bytes
  Partial,    ///< the send/recv moves 1 byte (reassembly loops)
  Reset,      ///< ECONNRESET (ECONNREFUSED at connect), or after arg bytes
};

inline constexpr int kFaultSiteCount = 8;
inline constexpr int kFaultKindCount = 9;
inline constexpr std::uint32_t kAllFaultSites = (1u << kFaultSiteCount) - 1;

[[nodiscard]] const char* to_string(FaultSite s) noexcept;
[[nodiscard]] const char* to_string(FaultKind k) noexcept;

struct Fault {
  FaultSite site = FaultSite::MapOpen;
  FaultKind kind = FaultKind::Eio;
  std::uint64_t at = 1;   ///< fires on the at-th crossing of `site` (1-based)
  std::uint64_t arg = 0;  ///< BitFlip: byte offset; Stall: milliseconds;
                          ///< Reset: byte budget of the fd (0 = now)
};

/// One seeded random entry: a per-crossing Bernoulli draw at its sites.
struct RandomFaults {
  std::uint64_t seed = 0;          ///< PRNG stream of this entry
  std::uint32_t rate_ppm = 0;      ///< per-crossing injection chance (0 = off)
  std::uint32_t sites = kAllFaultSites;  ///< bitmask of the sites it hits
  std::uint32_t stall_ms = 20;     ///< duration of randomly drawn stalls
};

/// A deterministic injection plan: explicit one-shot entries plus seeded
/// random entries over disjoint site sets.  Same plan + same crossing
/// sequence => same injections, always.
struct FaultPlan {
  std::vector<Fault> fixed;
  std::vector<RandomFaults> random;

  /// Parses the DSL above; throws std::invalid_argument with the offending
  /// entry on malformed input (kinds are validated against their site, and
  /// random entries may not share a site).
  [[nodiscard]] static FaultPlan parse(std::string_view dsl);
  /// Inverse of parse (normalized form; parse(to_dsl()) round-trips).
  [[nodiscard]] std::string to_dsl() const;
};

/// Installs `plan` process-wide, resetting crossing counters and stats.
void arm_faults(FaultPlan plan);
/// Arms from CXLPMEM_FAULTS (+ CXLPMEM_FAULT_SEED) and returns the armed
/// plan, or nothing when the variable is absent/empty.  Malformed DSL
/// throws, as parse() does — a chaos harness must fail loudly, not run
/// faultless.
std::optional<FaultPlan> arm_faults_from_env();
/// Disarms and drops the plan (stats survive until the next arm), and
/// ends every stall in progress: a test can hold a thread in a long stall
/// until the state it waits for is reached.
void clear_faults();
[[nodiscard]] bool faults_armed() noexcept;

struct FaultStats {
  std::uint64_t crossings[kFaultSiteCount] = {};  ///< per-site fault points hit
  std::uint64_t injected[kFaultKindCount] = {};   ///< per-kind injections fired
  [[nodiscard]] std::uint64_t injected_total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t k : injected) t += k;
    return t;
  }
};
[[nodiscard]] FaultStats fault_stats();

/// Trace mode: record every crossing without injecting, so a sweep driver
/// can enumerate a scenario's call sites and then re-run it with a fault
/// armed at each one (the crash-sweep recipe, applied to media errors).
/// The socket shims cross only while a plan is armed, so a trace holds
/// the media sites.
void begin_fault_trace();
[[nodiscard]] std::vector<FaultSite> end_fault_trace();

/// The instrumentation point.  Disarmed: one relaxed load.  Armed: counts
/// the crossing, consults the plan, and either returns nothing, throws a
/// typed PoolError (eio / enospc / corrupt), sleeps (stall, cut short by
/// clear_faults()), or returns a ShortWrite/BitFlip/Drop/Partial/Reset
/// action for the call site to apply.  `what` names the operation for the
/// error message ("/mnt/pmem2/kvshard-0.pool").
std::optional<Fault> fault_point(FaultSite site, std::string_view what);

/// PmemResource decorator: routes map_create/map_open through fault_point
/// and applies the two kinds that need side-effect cooperation.  A short
/// create leaves no backing store behind (retry-after-clear is clean, the
/// same contract MappedFile::create keeps on a real ftruncate failure); a
/// flip XORs `arg` into the mapped image after a successful open.
/// DaxNamespace substitutes this decorator automatically while faults are
/// armed, so facade-level callers (the daemon included) need no plumbing.
class FaultyResource final : public PmemResource {
 public:
  explicit FaultyResource(PmemResource& inner) : inner_(&inner) {}

  MappedFile map_create(std::uint64_t size) override;
  MappedFile map_open() override;
  [[nodiscard]] bool exists() const override { return inner_->exists(); }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }
  void remove() override { inner_->remove(); }

 private:
  PmemResource* inner_;
};

}  // namespace cxlpmem::pmemkit

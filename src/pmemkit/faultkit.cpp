#include "pmemkit/faultkit.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "pmemkit/checksum.hpp"

namespace cxlpmem::pmemkit {

namespace {

struct Injector {
  std::mutex mu;
  bool armed = false;           // mirrored in g_armed for the fast path
  bool tracing = false;
  FaultPlan plan;
  std::vector<bool> consumed;   // parallel to plan.fixed, one-shot entries
  std::uint64_t crossings[kFaultSiteCount] = {};
  FaultStats stats;
  std::vector<FaultSite> trace;
  std::condition_variable stall_cv;  // stalls sleep here; a clear ends them
  std::uint64_t clears = 0;          // clear_faults() calls so far
};

std::atomic<bool> g_armed{false};
std::atomic<bool> g_tracing{false};

Injector& injector() {
  static Injector inj;
  return inj;
}

[[noreturn]] void throw_injected(FaultKind kind, FaultSite site,
                                 std::string_view what) {
  const std::string where =
      std::string(what) + ": injected " + to_string(kind) + " at site '" +
      to_string(site) + "' (faultkit)";
  switch (kind) {
    case FaultKind::Enospc:
      throw PoolError(ErrKind::OutOfSpace,
                      where + ": " + std::strerror(ENOSPC));
    case FaultKind::Corrupt:
      throw PoolError(ErrKind::CorruptImage, where);
    case FaultKind::Eio:
    default:
      throw PoolError(ErrKind::Io, where + ": " + std::strerror(EIO));
  }
}

/// Kinds the random component may draw at a site.  Durable damage
/// (BitFlip) and partial-effect kinds (ShortWrite, Drop, Partial) are
/// never drawn randomly — they are opt-in via explicit entries: a random
/// partial turns a soak into a parser micro-test, and a random drop loses
/// a request the client then waits out.
FaultKind random_kind(FaultSite site, std::uint64_t draw) noexcept {
  switch (site) {
    case FaultSite::Send:
    case FaultSite::Recv:
    case FaultSite::Connect:
      return (draw & 1) != 0 ? FaultKind::Stall : FaultKind::Reset;
    case FaultSite::MapCreate:
    case FaultSite::Resize:
    case FaultSite::Sync:
      return (draw & 1) != 0 ? FaultKind::Eio : FaultKind::Enospc;
    case FaultSite::MapOpen:
      return FaultKind::Eio;
    case FaultSite::Serve:
      switch (draw % 3) {
        case 0: return FaultKind::Corrupt;
        case 1: return FaultKind::Stall;
        default: return FaultKind::Eio;
      }
  }
  return FaultKind::Eio;
}

// --- DSL ---------------------------------------------------------------------

const char* kSiteNames[kFaultSiteCount] = {
    "create", "open", "resize", "sync", "serve", "send", "recv", "connect"};
const char* kKindNames[kFaultKindCount] = {
    "eio", "enospc", "short", "flip", "corrupt", "stall", "drop", "partial",
    "reset"};

bool is_link(FaultSite site) noexcept {
  return site == FaultSite::Send || site == FaultSite::Recv ||
         site == FaultSite::Connect;
}

[[noreturn]] void bad_dsl(std::string_view entry, const char* why) {
  throw std::invalid_argument("faultkit DSL: " + std::string(why) + " in '" +
                              std::string(entry) + "'");
}

std::optional<FaultSite> site_of(std::string_view name) noexcept {
  for (int i = 0; i < kFaultSiteCount; ++i)
    if (name == kSiteNames[i]) return static_cast<FaultSite>(i);
  return std::nullopt;
}

std::optional<FaultKind> kind_of(std::string_view name) noexcept {
  for (int i = 0; i < kFaultKindCount; ++i)
    if (name == kKindNames[i]) return static_cast<FaultKind>(i);
  return std::nullopt;
}

/// Which kinds each site supports (explicit entries are validated so a
/// typo'd plan fails at parse, not by silently never firing).
bool site_supports(FaultSite site, FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::Eio:
      return !is_link(site);
    case FaultKind::Enospc:
      return site == FaultSite::MapCreate || site == FaultSite::Resize ||
             site == FaultSite::Sync;
    case FaultKind::ShortWrite:
      return site == FaultSite::MapCreate;
    case FaultKind::BitFlip:
      return site == FaultSite::MapOpen;
    case FaultKind::Corrupt:
      return site == FaultSite::Serve;
    case FaultKind::Stall:
      return site == FaultSite::Serve || is_link(site);
    case FaultKind::Drop:
      return site == FaultSite::Send;
    case FaultKind::Partial:
      return site == FaultSite::Send || site == FaultSite::Recv;
    case FaultKind::Reset:
      return is_link(site);
  }
  return false;
}

std::uint64_t parse_u64(std::string_view s, std::string_view entry,
                        const char* what) {
  if (s.empty()) bad_dsl(entry, what);
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') bad_dsl(entry, what);
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// random:seed=<s>,rate=<ppm>[,sites=a|b][,stall=<ms>] — one entry, whose
/// sites must not overlap any earlier entry's.
void parse_random_entry(std::string_view entry, FaultPlan& plan) {
  std::string_view rest = entry.substr(std::strlen("random:"));
  RandomFaults r;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view kv = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) bad_dsl(entry, "expected key=value");
    const std::string_view key = kv.substr(0, eq);
    const std::string_view val = kv.substr(eq + 1);
    if (key == "seed") {
      r.seed = parse_u64(val, entry, "bad seed");
    } else if (key == "rate") {
      const std::uint64_t rate = parse_u64(val, entry, "bad rate");
      if (rate > 1000000) bad_dsl(entry, "rate above 1000000 ppm");
      r.rate_ppm = static_cast<std::uint32_t>(rate);
    } else if (key == "stall") {
      r.stall_ms =
          static_cast<std::uint32_t>(parse_u64(val, entry, "bad stall"));
    } else if (key == "sites") {
      r.sites = 0;
      std::string_view sites = val;
      while (!sites.empty()) {
        const std::size_t bar = sites.find('|');
        const std::string_view name = sites.substr(0, bar);
        sites = bar == std::string_view::npos ? std::string_view()
                                              : sites.substr(bar + 1);
        const std::optional<FaultSite> s = site_of(name);
        if (!s) bad_dsl(entry, "unknown site");
        r.sites |= 1u << static_cast<int>(*s);
      }
    } else {
      bad_dsl(entry, "unknown key");
    }
  }
  for (const RandomFaults& earlier : plan.random)
    if ((earlier.sites & r.sites) != 0)
      bad_dsl(entry, "site already covered by an earlier random entry");
  plan.random.push_back(r);
}

}  // namespace

const char* to_string(FaultSite s) noexcept {
  const int i = static_cast<int>(s);
  return i >= 0 && i < kFaultSiteCount ? kSiteNames[i] : "?";
}

const char* to_string(FaultKind k) noexcept {
  const int i = static_cast<int>(k);
  return i >= 0 && i < kFaultKindCount ? kKindNames[i] : "?";
}

FaultPlan FaultPlan::parse(std::string_view dsl) {
  FaultPlan plan;
  std::string_view rest = dsl;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    // Trim spaces so hand-written env values are forgiving.
    while (!entry.empty() && entry.front() == ' ') entry.remove_prefix(1);
    while (!entry.empty() && entry.back() == ' ') entry.remove_suffix(1);
    if (entry.empty()) continue;
    if (entry.rfind("random:", 0) == 0) {
      parse_random_entry(entry, plan);
      continue;
    }
    // <site>:<kind>@<n>[+<arg>]
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos) bad_dsl(entry, "expected site:kind");
    const std::optional<FaultSite> site = site_of(entry.substr(0, colon));
    if (!site) bad_dsl(entry, "unknown site");
    std::string_view kind_at = entry.substr(colon + 1);
    const std::size_t at_pos = kind_at.find('@');
    if (at_pos == std::string_view::npos) bad_dsl(entry, "expected kind@n");
    const std::optional<FaultKind> kind = kind_of(kind_at.substr(0, at_pos));
    if (!kind) bad_dsl(entry, "unknown kind");
    if (!site_supports(*site, *kind))
      bad_dsl(entry, "kind not injectable at this site");
    std::string_view n_arg = kind_at.substr(at_pos + 1);
    Fault f;
    f.site = *site;
    f.kind = *kind;
    const std::size_t plus = n_arg.find('+');
    f.at = parse_u64(n_arg.substr(0, plus), entry, "bad crossing index");
    if (f.at == 0) bad_dsl(entry, "crossing index is 1-based");
    if (plus != std::string_view::npos)
      f.arg = parse_u64(n_arg.substr(plus + 1), entry, "bad argument");
    plan.fixed.push_back(f);
  }
  return plan;
}

std::string FaultPlan::to_dsl() const {
  std::string out;
  for (const Fault& f : fixed) {
    if (!out.empty()) out += ';';
    out += std::string(to_string(f.site)) + ":" + to_string(f.kind) + "@" +
           std::to_string(f.at);
    if (f.arg != 0) out += "+" + std::to_string(f.arg);
  }
  for (const RandomFaults& r : random) {
    if (!out.empty()) out += ';';
    out += "random:seed=" + std::to_string(r.seed) +
           ",rate=" + std::to_string(r.rate_ppm);
    if (r.sites != kAllFaultSites) {
      out += ",sites=";
      const char* sep = "";
      for (int i = 0; i < kFaultSiteCount; ++i)
        if ((r.sites & (1u << i)) != 0) {
          out += sep;
          out += kSiteNames[i];
          sep = "|";
        }
    }
    out += ",stall=" + std::to_string(r.stall_ms);
  }
  return out;
}

void arm_faults(FaultPlan plan) {
  Injector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  inj.plan = std::move(plan);
  inj.consumed.assign(inj.plan.fixed.size(), false);
  std::fill(std::begin(inj.crossings), std::end(inj.crossings), 0);
  inj.stats = FaultStats{};
  inj.armed = true;
  g_armed.store(true, std::memory_order_release);
}

std::optional<FaultPlan> arm_faults_from_env() {
  const char* dsl = std::getenv("CXLPMEM_FAULTS");
  if (dsl == nullptr || *dsl == '\0') return std::nullopt;
  FaultPlan plan = FaultPlan::parse(dsl);
  if (const char* seed = std::getenv("CXLPMEM_FAULT_SEED");
      seed != nullptr && *seed != '\0')
    for (RandomFaults& r : plan.random)
      r.seed = std::strtoull(seed, nullptr, 10);
  arm_faults(plan);
  return plan;
}

void clear_faults() {
  Injector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  inj.armed = false;
  inj.plan = FaultPlan{};
  inj.consumed.clear();
  ++inj.clears;
  inj.stall_cv.notify_all();
  g_armed.store(false, std::memory_order_release);
}

bool faults_armed() noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

FaultStats fault_stats() {
  Injector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  return inj.stats;
}

void begin_fault_trace() {
  Injector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  inj.tracing = true;
  inj.trace.clear();
  g_tracing.store(true, std::memory_order_release);
}

std::vector<FaultSite> end_fault_trace() {
  Injector& inj = injector();
  const std::lock_guard<std::mutex> lock(inj.mu);
  inj.tracing = false;
  g_tracing.store(false, std::memory_order_release);
  return std::move(inj.trace);
}

std::optional<Fault> fault_point(FaultSite site, std::string_view what) {
  const bool armed = g_armed.load(std::memory_order_relaxed);
  const bool tracing = g_tracing.load(std::memory_order_relaxed);
  if (!armed && !tracing) return std::nullopt;

  Injector& inj = injector();
  std::optional<Fault> fired;
  std::uint64_t clears = 0;
  {
    const std::lock_guard<std::mutex> lock(inj.mu);
    if (inj.tracing) inj.trace.push_back(site);
    if (!inj.armed) return std::nullopt;
    const int si = static_cast<int>(site);
    const std::uint64_t crossing = ++inj.crossings[si];
    ++inj.stats.crossings[si];
    // Explicit one-shot entries first — they pin exact crossings and win
    // over the random draw, so a sweep is exact even under a chaos rate.
    for (std::size_t i = 0; i < inj.plan.fixed.size(); ++i) {
      const Fault& f = inj.plan.fixed[i];
      if (!inj.consumed[i] && f.site == site && f.at == crossing) {
        inj.consumed[i] = true;
        fired = f;
        break;
      }
    }
    // The random entry covering this site, if any: one splitmix64 output
    // per (seed, site, crossing), so the decision at a crossing never
    // depends on what other threads did in between.
    for (const RandomFaults& r : inj.plan.random) {
      if (fired || (r.sites & (1u << si)) == 0) continue;
      const std::uint64_t draw = splitmix64(
          r.seed ^ (static_cast<std::uint64_t>(si) << 56) ^ crossing);
      if (draw % 1000000 < r.rate_ppm) {
        const FaultKind kind = random_kind(site, draw >> 32);
        fired = Fault{site, kind, crossing,
                      kind == FaultKind::Stall ? r.stall_ms : 0u};
      }
    }
    if (fired) ++inj.stats.injected[static_cast<int>(fired->kind)];
    clears = inj.clears;
  }
  if (!fired) return std::nullopt;
  switch (fired->kind) {
    case FaultKind::Eio:
    case FaultKind::Enospc:
    case FaultKind::Corrupt:
      throw_injected(fired->kind, site, what);
    case FaultKind::Stall: {
      std::unique_lock<std::mutex> lock(inj.mu);
      inj.stall_cv.wait_for(
          lock, std::chrono::milliseconds(fired->arg != 0 ? fired->arg : 20),
          [&] { return inj.clears != clears; });
      return std::nullopt;
    }
    case FaultKind::ShortWrite:
    case FaultKind::BitFlip:
    case FaultKind::Drop:
    case FaultKind::Partial:
    case FaultKind::Reset:
      return fired;  // the call site applies the effect
  }
  return std::nullopt;
}

MappedFile FaultyResource::map_create(std::uint64_t size) {
  const std::optional<Fault> f =
      fault_point(FaultSite::MapCreate, inner_->describe());
  if (f && f->kind == FaultKind::ShortWrite) {
    // The device accepted the create, materialized a fraction of the
    // requested store, then errored — clean up exactly like
    // MappedFile::create does on a real mid-create failure, so the typed
    // error leaves no half-image to wedge a retry on PoolExists.
    {
      const MappedFile partial =
          inner_->map_create(std::max<std::uint64_t>(size / 2, 4096));
    }
    inner_->remove();
    throw PoolError(ErrKind::Io, inner_->describe() +
                                     ": injected short write at site "
                                     "'create' (faultkit): " +
                                     std::strerror(EIO));
  }
  return inner_->map_create(size);
}

MappedFile FaultyResource::map_open() {
  const std::optional<Fault> f =
      fault_point(FaultSite::MapOpen, inner_->describe());
  MappedFile mf = inner_->map_open();
  if (f && f->kind == FaultKind::BitFlip && mf.size() > 0) {
    // Torn media: XOR one byte of the image the caller is about to
    // validate.  MAP_SHARED makes the flip durable — by design; checksum
    // paths must catch it, and recovery is restoring the byte.
    const std::uint64_t off = std::min<std::uint64_t>(
        f->arg, static_cast<std::uint64_t>(mf.size()) - 1);
    mf.data()[off] ^= std::byte{0x40};
  }
  return mf;
}

}  // namespace cxlpmem::pmemkit

#include "service/net_fault.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "pmemkit/faultkit.hpp"

namespace cxlpmem::service {

namespace {

namespace pk = pmemkit;

/// fd -> bytes that may still cross before the connection dies (armed by
/// reset@n+B; dropped when the fd closes).
std::mutex g_budget_mu;
std::unordered_map<int, std::uint64_t> g_budget;

ssize_t fail(int err) {
  errno = err;
  return -1;
}

/// Applies a reset the schedule returned: true when the call must fail
/// now, false when it armed the fd's byte budget instead.
bool reset_now(int fd, const pk::Fault& f) {
  if (f.arg == 0) return true;
  const std::lock_guard<std::mutex> lock(g_budget_mu);
  g_budget.insert_or_assign(fd, f.arg);
  return false;
}

/// One armed send/recv: crosses `site`, applies the fault it returns,
/// then runs `io` on at most the fd's remaining budget.  The budget is
/// taken before the syscall and what it did not move is given back, so
/// no more than B bytes cross even with both directions in flight.
template <typename Io>
ssize_t cross_io(pk::FaultSite site, int fd, std::size_t len, Io io) {
  if (const std::optional<pk::Fault> f = pk::fault_point(site, "socket")) {
    if (f->kind == pk::FaultKind::Drop) return static_cast<ssize_t>(len);
    if (f->kind == pk::FaultKind::Partial) len = std::min<std::size_t>(len, 1);
    if (f->kind == pk::FaultKind::Reset && reset_now(fd, *f))
      return fail(ECONNRESET);
  }
  bool budgeted = false;
  {
    const std::lock_guard<std::mutex> lock(g_budget_mu);
    if (const auto it = g_budget.find(fd); it != g_budget.end()) {
      if (it->second == 0) return fail(ECONNRESET);
      len = static_cast<std::size_t>(std::min<std::uint64_t>(len, it->second));
      it->second -= len;
      budgeted = true;
    }
  }
  const ssize_t n = io(len);
  const std::size_t moved = n > 0 ? static_cast<std::size_t>(n) : 0;
  if (budgeted && moved < len) {
    const std::lock_guard<std::mutex> lock(g_budget_mu);
    if (const auto it = g_budget.find(fd); it != g_budget.end())
      it->second += len - moved;
  }
  return n;
}

}  // namespace

ssize_t net_send(int fd, const void* buf, std::size_t len, int flags) {
  if (!pk::faults_armed()) return ::send(fd, buf, len, flags);
  return cross_io(pk::FaultSite::Send, fd, len, [&](std::size_t n) {
    return ::send(fd, buf, n, flags);
  });
}

ssize_t net_recv(int fd, void* buf, std::size_t len, int flags) {
  if (!pk::faults_armed()) return ::recv(fd, buf, len, flags);
  return cross_io(pk::FaultSite::Recv, fd, len, [&](std::size_t n) {
    return ::recv(fd, buf, n, flags);
  });
}

int net_connect(int fd, const struct sockaddr* addr, std::size_t addrlen) {
  if (pk::faults_armed()) {
    const std::optional<pk::Fault> f =
        pk::fault_point(pk::FaultSite::Connect, "socket");
    if (f && f->kind == pk::FaultKind::Reset && reset_now(fd, *f)) {
      errno = ECONNREFUSED;
      return -1;
    }
  }
  return ::connect(fd, addr, static_cast<socklen_t>(addrlen));
}

void net_fault_forget_fd(int fd) {
  const std::lock_guard<std::mutex> lock(g_budget_mu);
  g_budget.erase(fd);
}

}  // namespace cxlpmem::service

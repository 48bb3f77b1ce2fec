// service/net_fault.hpp — the link half of faultkit: socket shims.
//
// Every socket syscall the service layer makes (client and server alike)
// goes through net_send/net_recv/net_connect below.  Disarmed they are a
// straight passthrough behind one relaxed atomic load
// (pmemkit::faults_armed()).  Armed, each call crosses the faultkit site
// of the same name (send / recv / connect) and applies what the schedule
// returns:
//
//   drop     send reports success; the peer never sees the bytes
//   stall    the call sleeps first (latency spike / congested link)
//   partial  the send/recv moves 1 byte (exercises every reassembly
//            loop — RespParser::NeedMore, send_all's resume-at-offset)
//   reset    the call fails with ECONNRESET (ECONNREFUSED at connect)
//
// reset@n+B arms a byte budget on that fd instead: sends and recvs are cut
// to what is left of it, exactly B bytes cross in either direction, and
// the next send/recv after that fails with ECONNRESET — a connection that
// dies mid-frame at byte B.  The schedule itself (DSL, seeds, stats) is
// pmemkit/faultkit.hpp's; the budget is the only per-fd state.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>

namespace cxlpmem::service {

// Drop-in for ::send / ::recv / ::connect.  Failures injected here set
// errno exactly as the kernel would (ECONNRESET / ECONNREFUSED), so
// callers keep one error path for real and injected faults alike.
ssize_t net_send(int fd, const void* buf, std::size_t len, int flags);
ssize_t net_recv(int fd, void* buf, std::size_t len, int flags);
int net_connect(int fd, const struct sockaddr* addr, std::size_t addrlen);

/// Forgets the fd's reset budget when it closes (fd numbers are recycled;
/// a stale budget would fire on an unrelated connection).
void net_fault_forget_fd(int fd);

}  // namespace cxlpmem::service

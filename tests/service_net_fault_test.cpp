// service_net_fault_test — the link half of faultkit: the socket shims.
//
// Single-threaded over a socketpair, so the crossing numbers in each plan
// are exactly the calls the test makes.  The contract: drop reports
// success and delivers nothing, partial moves one byte, stall delays but
// completes, reset fails with the errno the kernel would set, and
// reset@n+B lets exactly B bytes cross before the fd dies — counted in
// bytes the syscalls moved, not bytes the caller asked for.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <string>

#include "pmemkit/faultkit.hpp"
#include "service/net_fault.hpp"

namespace {

namespace pk = cxlpmem::pmemkit;
using cxlpmem::service::net_connect;
using cxlpmem::service::net_fault_forget_fd;
using cxlpmem::service::net_recv;
using cxlpmem::service::net_send;

class LinkFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pk::clear_faults();
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    pk::clear_faults();
    for (const int fd : fds_) {
      net_fault_forget_fd(fd);
      ::close(fd);
    }
  }

  /// Queues `bytes` for b to read, with a plain send (no crossing).
  void queue_at_b(const std::string& bytes) {
    ASSERT_EQ(::send(a(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Drains what is waiting at b without a crossing.
  std::string drain_b() {
    char buf[4096];
    const ssize_t n = ::recv(b(), buf, sizeof(buf), MSG_DONTWAIT);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
  }

  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(LinkFaultTest, DisarmedShimsPassThrough) {
  ASSERT_FALSE(pk::faults_armed());
  EXPECT_EQ(net_send(a(), "hello", 5, 0), 5);
  char buf[16];
  EXPECT_EQ(net_recv(b(), buf, sizeof(buf), 0), 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
}

TEST_F(LinkFaultTest, SendDropReportsSuccessAndDeliversNothing) {
  pk::arm_faults(pk::FaultPlan::parse("send:drop@1"));
  EXPECT_EQ(net_send(a(), "lost", 4, 0), 4);
  EXPECT_EQ(drain_b(), "");
  EXPECT_EQ(net_send(a(), "kept", 4, 0), 4);  // one-shot
  EXPECT_EQ(drain_b(), "kept");
  EXPECT_EQ(pk::fault_stats().injected[static_cast<int>(pk::FaultKind::Drop)],
            1u);
}

TEST_F(LinkFaultTest, PartialMovesOneByte) {
  pk::arm_faults(pk::FaultPlan::parse("send:partial@1;recv:partial@1"));
  EXPECT_EQ(net_send(a(), "hello", 5, 0), 1);
  EXPECT_EQ(drain_b(), "h");

  queue_at_b("world");
  char buf[16];
  ASSERT_EQ(net_recv(b(), buf, sizeof(buf), 0), 1);
  EXPECT_EQ(buf[0], 'w');
  ASSERT_EQ(net_recv(b(), buf, sizeof(buf), 0), 4);  // one-shot
  EXPECT_EQ(std::string(buf, 4), "orld");
}

TEST_F(LinkFaultTest, StallDelaysTheCallButItCompletes) {
  pk::arm_faults(pk::FaultPlan::parse("send:stall@1+60;recv:stall@1+60"));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(net_send(a(), "slow", 4, 0), 4);
  char buf[16];
  EXPECT_EQ(net_recv(b(), buf, sizeof(buf), 0), 4);
  EXPECT_EQ(std::string(buf, 4), "slow");
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(120));
  EXPECT_EQ(
      pk::fault_stats().injected[static_cast<int>(pk::FaultKind::Stall)], 2u);
}

TEST_F(LinkFaultTest, ResetFailsWithConnReset) {
  pk::arm_faults(pk::FaultPlan::parse("send:reset@2"));
  EXPECT_EQ(net_send(a(), "one", 3, 0), 3);
  errno = 0;
  EXPECT_EQ(net_send(a(), "two", 3, 0), -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(drain_b(), "one");
}

TEST_F(LinkFaultTest, ConnectResetIsRefused) {
  pk::arm_faults(pk::FaultPlan::parse("connect:reset@1"));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(1);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  errno = 0;
  // The shim refuses before the syscall: nothing is sent anywhere.
  EXPECT_EQ(net_connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
            -1);
  EXPECT_EQ(errno, ECONNREFUSED);
  ::close(fd);
  EXPECT_EQ(
      pk::fault_stats().crossings[static_cast<int>(pk::FaultSite::Connect)],
      1u);
}

// reset@n+B: exactly B bytes cross, however large the caller's buffer,
// and the next call on that fd fails.
TEST_F(LinkFaultTest, ResetBudgetLetsExactlyBBytesCrossARecv) {
  queue_at_b(std::string(100, 'x'));
  pk::arm_faults(pk::FaultPlan::parse("recv:reset@1+10"));
  char buf[4096];
  EXPECT_EQ(net_recv(b(), buf, sizeof(buf), 0), 10);
  errno = 0;
  EXPECT_EQ(net_recv(b(), buf, sizeof(buf), 0), -1);
  EXPECT_EQ(errno, ECONNRESET);
}

TEST_F(LinkFaultTest, ResetBudgetCountsBytesAcrossSmallReads) {
  queue_at_b(std::string(100, 'x'));
  pk::arm_faults(pk::FaultPlan::parse("recv:reset@1+10"));
  char buf[8];
  std::size_t crossed = 0;
  ssize_t n = 0;
  while ((n = net_recv(b(), buf, sizeof(buf), 0)) > 0)
    crossed += static_cast<std::size_t>(n);
  EXPECT_EQ(n, -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(crossed, 10u);
}

TEST_F(LinkFaultTest, ResetBudgetCutsASendAtByteB) {
  pk::arm_faults(pk::FaultPlan::parse("send:reset@1+10"));
  const std::string frame(100, 'y');
  EXPECT_EQ(net_send(a(), frame.data(), frame.size(), 0), 10);
  errno = 0;
  EXPECT_EQ(net_send(a(), frame.data() + 10, frame.size() - 10, 0), -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(drain_b(), std::string(10, 'y'));
}

TEST_F(LinkFaultTest, ForgottenFdLosesItsBudget) {
  queue_at_b(std::string(20, 'z'));
  pk::arm_faults(pk::FaultPlan::parse("recv:reset@1+4"));
  char buf[64];
  EXPECT_EQ(net_recv(b(), buf, sizeof(buf), 0), 4);
  net_fault_forget_fd(b());  // as a close does: the next fd is a new link
  EXPECT_EQ(net_recv(b(), buf, sizeof(buf), 0), 16);
}

// The random component draws only stall or reset at the link sites.
TEST_F(LinkFaultTest, RandomLinkFaultsAreStallsAndResets) {
  pk::arm_faults(
      pk::FaultPlan::parse("random:seed=5,rate=1000000,sites=send,stall=1"));
  int ok = 0, reset = 0;
  for (int i = 0; i < 40; ++i) {
    if (net_send(a(), "r", 1, 0) == 1) {
      ++ok;
    } else {
      EXPECT_EQ(errno, ECONNRESET);
      ++reset;
    }
  }
  const pk::FaultStats st = pk::fault_stats();
  EXPECT_EQ(st.injected_total(), 40u);
  EXPECT_EQ(st.injected[static_cast<int>(pk::FaultKind::Stall)],
            static_cast<std::uint64_t>(ok));
  EXPECT_EQ(st.injected[static_cast<int>(pk::FaultKind::Reset)],
            static_cast<std::uint64_t>(reset));
  EXPECT_GT(ok, 0);
  EXPECT_GT(reset, 0);
}

TEST_F(LinkFaultTest, ParseRejectsKindsALinkSiteCannotTake) {
  EXPECT_THROW((void)pk::FaultPlan::parse("recv:drop@1"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("connect:partial@1"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("send:eio@1"),
               std::invalid_argument);
  EXPECT_THROW((void)pk::FaultPlan::parse("serve:reset@1"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)pk::FaultPlan::parse(
      "send:drop@1;send:partial@2;recv:partial@1;connect:stall@1+5;"
      "connect:reset@2;recv:reset@3+4096"));
}

}  // namespace

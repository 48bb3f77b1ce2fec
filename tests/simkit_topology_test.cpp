// Tests for simkit topology construction, routing and the machine profiles.
#include <gtest/gtest.h>

#include "simkit/profiles.hpp"
#include "simkit/route.hpp"
#include "simkit/topology.hpp"

namespace sk = cxlpmem::simkit;
namespace profiles = cxlpmem::simkit::profiles;

namespace {

sk::Machine two_socket_machine() {
  sk::Machine m;
  const auto s0 = m.add_socket({.name = "s0", .cores = 4});
  const auto s1 = m.add_socket({.name = "s1", .cores = 4});
  m.add_memory({.name = "m0",
                .home_socket = s0,
                .peak_read_gbs = 10,
                .peak_write_gbs = 8,
                .idle_latency_ns = 100});
  m.add_memory({.name = "m1",
                .home_socket = s1,
                .peak_read_gbs = 10,
                .peak_write_gbs = 8,
                .idle_latency_ns = 100});
  const auto cxl_mem = m.add_memory({.name = "cxl",
                                     .kind = sk::MemoryKind::CxlExpander,
                                     .home_socket = sk::kInvalidId,
                                     .peak_read_gbs = 5,
                                     .peak_write_gbs = 4,
                                     .idle_latency_ns = 300});
  m.add_link({.name = "upi",
              .kind = sk::LinkKind::Upi,
              .a = s0,
              .b = s1,
              .peak_tx_gbs = 6,
              .peak_rx_gbs = 6,
              .latency_ns = 40,
              .attached = {}});
  m.add_link({.name = "pcie",
              .kind = sk::LinkKind::PcieCxl,
              .a = s0,
              .b = sk::kInvalidId,
              .peak_tx_gbs = 30,
              .peak_rx_gbs = 30,
              .latency_ns = 100,
              .attached = {cxl_mem}});
  return m;
}

TEST(Topology, CoreNumberingIsSocketMajor) {
  const sk::Machine m = two_socket_machine();
  EXPECT_EQ(m.core_count(), 8);
  EXPECT_EQ(m.socket_of_core(0), 0);
  EXPECT_EQ(m.socket_of_core(3), 0);
  EXPECT_EQ(m.socket_of_core(4), 1);
  EXPECT_EQ(m.socket_of_core(7), 1);
  EXPECT_THROW((void)m.socket_of_core(8), std::out_of_range);
  EXPECT_THROW((void)m.socket_of_core(-1), std::out_of_range);
}

TEST(Topology, CoresOfSocket) {
  const sk::Machine m = two_socket_machine();
  const auto cores = m.cores_of_socket(1);
  ASSERT_EQ(cores.size(), 4u);
  EXPECT_EQ(cores.front(), 4);
  EXPECT_EQ(cores.back(), 7);
}

TEST(Topology, MemoriesOfSocketAndLinkLookup) {
  const sk::Machine m = two_socket_machine();
  EXPECT_EQ(m.memories_of_socket(0), std::vector<sk::MemoryId>{0});
  EXPECT_EQ(m.memories_of_socket(1), std::vector<sk::MemoryId>{1});
  EXPECT_EQ(m.link_of_memory(2), 1);
  EXPECT_EQ(m.link_of_memory(0), sk::kInvalidId);
  EXPECT_EQ(m.socket_link(0, 1), 0);
  EXPECT_EQ(m.socket_link(1, 0), 0);
}

TEST(Topology, ValidationRejectsBadWiring) {
  sk::Machine m;
  EXPECT_THROW(m.add_socket({.name = "empty", .cores = 0}),
               std::invalid_argument);
  const auto s0 = m.add_socket({.name = "s0", .cores = 2});
  EXPECT_THROW(m.add_memory({.name = "bad", .peak_read_gbs = 0}),
               std::invalid_argument);
  // Link-attached memory must not have a home socket.
  const auto imc = m.add_memory({.name = "imc",
                                 .home_socket = s0,
                                 .peak_read_gbs = 1,
                                 .peak_write_gbs = 1});
  EXPECT_THROW(m.add_link({.name = "bad",
                           .kind = sk::LinkKind::PcieCxl,
                           .a = s0,
                           .b = sk::kInvalidId,
                           .peak_tx_gbs = 1,
                           .peak_rx_gbs = 1,
                           .attached = {imc}}),
               std::invalid_argument);
  // Dangling link: neither socket nor device.
  EXPECT_THROW(m.add_link({.name = "dangling",
                           .kind = sk::LinkKind::Upi,
                           .a = s0,
                           .b = sk::kInvalidId,
                           .peak_tx_gbs = 1,
                           .peak_rx_gbs = 1,
                           .attached = {}}),
               std::invalid_argument);
}

TEST(Route, LocalAccessHasNoHops) {
  const sk::Machine m = two_socket_machine();
  const sk::Path p = sk::resolve_route(m, 0, 0);
  EXPECT_TRUE(p.hops.empty());
  EXPECT_DOUBLE_EQ(p.latency_ns, 100.0);
  EXPECT_FALSE(p.crosses_upi(m));
  EXPECT_FALSE(p.crosses_cxl(m));
}

TEST(Route, RemoteSocketCrossesUpi) {
  const sk::Machine m = two_socket_machine();
  const sk::Path p = sk::resolve_route(m, 0, 1);
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_TRUE(p.hops[0].toward_b);
  EXPECT_DOUBLE_EQ(p.latency_ns, 140.0);
  EXPECT_TRUE(p.crosses_upi(m));
}

TEST(Route, RemoteSocketReverseDirection) {
  const sk::Machine m = two_socket_machine();
  const sk::Path p = sk::resolve_route(m, 1, 0);
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_FALSE(p.hops[0].toward_b);  // request travels B -> A
}

TEST(Route, CxlFromRootSocket) {
  const sk::Machine m = two_socket_machine();
  const sk::Path p = sk::resolve_route(m, 0, 2);
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_DOUBLE_EQ(p.latency_ns, 400.0);
  EXPECT_TRUE(p.crosses_cxl(m));
  EXPECT_FALSE(p.crosses_upi(m));
}

TEST(Route, CxlFromFarSocketCrossesUpiThenCxl) {
  const sk::Machine m = two_socket_machine();
  const sk::Path p = sk::resolve_route(m, 1, 2);
  ASSERT_EQ(p.hops.size(), 2u);
  EXPECT_DOUBLE_EQ(p.latency_ns, 300.0 + 40.0 + 100.0);
  EXPECT_TRUE(p.crosses_cxl(m));
  EXPECT_TRUE(p.crosses_upi(m));
}

TEST(Profiles, SetupOneShape) {
  const auto s = profiles::make_setup_one();
  EXPECT_EQ(s.machine.socket_count(), 2);
  EXPECT_EQ(s.machine.core_count(), 20);
  EXPECT_EQ(s.machine.memory_count(), 3);
  EXPECT_EQ(s.machine.link_count(), 2);
  EXPECT_EQ(s.machine.memory(s.cxl).kind, sk::MemoryKind::CxlExpander);
  EXPECT_TRUE(s.machine.memory(s.cxl).persistent);
  EXPECT_EQ(s.machine.memory(s.cxl).capacity_bytes, 16ull << 30);
  EXPECT_EQ(s.machine.link(s.cxl_link).kind, sk::LinkKind::PcieCxl);
  // The soft-IP ceiling lives on the device (shared by all heads).
  EXPECT_GT(s.machine.memory(s.cxl).peak_combined_gbs, 0.0);
}

TEST(Profiles, SetupTwoShape) {
  const auto s = profiles::make_setup_two();
  EXPECT_EQ(s.machine.socket_count(), 2);
  EXPECT_EQ(s.machine.memory_count(), 2);
  EXPECT_EQ(s.machine.memory(s.ddr4_socket0).kind,
            sk::MemoryKind::DramDdr4);
  // Setup #2 has no CXL attachment.
  EXPECT_EQ(s.machine.link_count(), 1);
}

TEST(Profiles, LegacySetupHasDcpmm) {
  const auto s = profiles::make_legacy_setup();
  const auto& dcpmm = s.machine.memory(s.dcpmm);
  EXPECT_EQ(dcpmm.kind, sk::MemoryKind::Dcpmm);
  EXPECT_TRUE(dcpmm.persistent);
  // Published numbers: 6.6 read / 2.3 write (paper §1.4 citing [26]).
  EXPECT_DOUBLE_EQ(dcpmm.peak_read_gbs, 6.6);
  EXPECT_DOUBLE_EQ(dcpmm.peak_write_gbs, 2.3);
}

TEST(Profiles, MediaOnImcVariantDropsTheLink) {
  const auto s = profiles::make_setup_one_media_on_imc();
  EXPECT_EQ(s.cxl_link, sk::kInvalidId);
  EXPECT_EQ(s.machine.memory(s.cxl).home_socket, s.socket0);
  // Same media bandwidth as the CXL-attached variant.
  const auto c = profiles::make_setup_one();
  EXPECT_DOUBLE_EQ(s.machine.memory(s.cxl).peak_read_gbs,
                   c.machine.memory(c.cxl).peak_read_gbs);
}

TEST(Units, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(sk::ddr_peak_gbs(4800, 1), 38.4);
  EXPECT_DOUBLE_EQ(sk::ddr_peak_gbs(2666, 6), 127.968);
  EXPECT_DOUBLE_EQ(sk::serial_peak_gbs(32, 16), 64.0);
}

}  // namespace

// Tests for the Type-3 device: the mailbox's repartition and LSA commands,
// the FPGA prototype profile and multi-headed exposure.
#include <gtest/gtest.h>

#include <cstring>

#include "cxlsim/cxlsim.hpp"

namespace cs = cxlpmem::cxlsim;

namespace {

cs::Type3Config small_config() {
  cs::Type3Config c;
  c.capacity_bytes = 1 << 20;
  c.persistent_bytes = 1 << 20;
  c.lsa_bytes = 4096;
  return c;
}

TEST(Device, PartitioningMovesCapacity) {
  cs::Type3Device dev(small_config());
  cs::PartitionInfoPayload want{1 << 19, 1 << 19};
  std::vector<std::uint8_t> in(sizeof(want));
  std::memcpy(in.data(), &want, sizeof(want));
  ASSERT_EQ(dev.execute(cs::MboxOpcode::SetPartitionInfo, in).status,
            cs::MboxStatus::Success);
  EXPECT_EQ(dev.persistent_capacity(), 1u << 19);
  EXPECT_EQ(dev.volatile_capacity(), 1u << 19);

  // Mismatched sum rejected.
  want = {1 << 19, 1 << 18};
  std::memcpy(in.data(), &want, sizeof(want));
  EXPECT_EQ(dev.execute(cs::MboxOpcode::SetPartitionInfo, in).status,
            cs::MboxStatus::InvalidInput);
}

TEST(Device, LsaStoresLabels) {
  cs::Type3Device dev(small_config());
  const std::string label = "namespace:pmem2";
  std::vector<std::uint8_t> in(label.begin(), label.end());
  ASSERT_EQ(dev.execute(cs::MboxOpcode::SetLsa, in).status,
            cs::MboxStatus::Success);
  const auto out = dev.execute(cs::MboxOpcode::GetLsa, {});
  ASSERT_EQ(out.status, cs::MboxStatus::Success);
  EXPECT_EQ(std::memcmp(out.payload.data(), label.data(), label.size()), 0);
  // Oversized label rejected.
  std::vector<std::uint8_t> big(8192, 0);
  EXPECT_EQ(dev.execute(cs::MboxOpcode::SetLsa, big).status,
            cs::MboxStatus::InvalidInput);
}

TEST(Device, UnknownOpcodeIsUnsupported) {
  cs::Type3Device dev(small_config());
  EXPECT_EQ(dev.execute(static_cast<cs::MboxOpcode>(0x9999), {}).status,
            cs::MboxStatus::Unsupported);
}

TEST(FpgaPrototype, MatchesPaperGeometry) {
  const auto cfg = cs::fpga_prototype_config();
  EXPECT_EQ(cfg.capacity_bytes, 16ull << 30);  // 2 x 8 GB DDR4
  EXPECT_TRUE(cfg.battery_backed);
  EXPECT_GT(cfg.timing.controller_combined_gbs, 0.0);
  auto dev = cs::make_fpga_prototype();
  EXPECT_TRUE(dev->persistence_domain());

  auto no_battery_cfg = cfg;
  no_battery_cfg.battery_backed = false;
  const cs::Type3Device no_battery(no_battery_cfg);
  EXPECT_FALSE(no_battery.persistence_domain());
}

TEST(MultiHeaded, HeadsShareTheSameMedia) {
  cs::MultiHeadedExpander mh(small_config(), 2);
  auto h0 = mh.media_for_head(0);
  auto h1 = mh.media_for_head(1);
  // Same physical bytes: a write through head 0 is visible on head 1 —
  // and coherence between hosts is explicitly NOT provided (paper §2.2).
  h0[0] = std::byte{0x42};
  EXPECT_EQ(h1[0], std::byte{0x42});
  EXPECT_THROW((void)mh.media_for_head(2), std::out_of_range);
  EXPECT_THROW(cs::MultiHeadedExpander(small_config(), 9),
               std::invalid_argument);
}

}  // namespace

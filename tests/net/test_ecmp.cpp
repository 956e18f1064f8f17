#include <gtest/gtest.h>

#include "net/topology.hpp"

namespace src::net {
namespace {

using common::Rate;

// Diamond: a - s1 - {m1, m2} - s2 - b (two equal-cost paths).
struct DiamondRig {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  Network net{lanes, NetConfig{}};
  NodeId a, b, s1, s2, m1, m2;

  DiamondRig() {
    a = net.add_host("a");
    b = net.add_host("b");
    s1 = net.add_switch("s1");
    s2 = net.add_switch("s2");
    m1 = net.add_switch("m1");
    m2 = net.add_switch("m2");
    net.connect(a, s1, Rate::gbps(10.0), common::kMicrosecond);
    net.connect(b, s2, Rate::gbps(10.0), common::kMicrosecond);
    net.connect(s1, m1, Rate::gbps(10.0), common::kMicrosecond);
    net.connect(s1, m2, Rate::gbps(10.0), common::kMicrosecond);
    net.connect(m1, s2, Rate::gbps(10.0), common::kMicrosecond);
    net.connect(m2, s2, Rate::gbps(10.0), common::kMicrosecond);
    net.finalize();
  }
};

TEST(EcmpTest, TwoEqualCostRoutesRegistered) {
  DiamondRig rig;
  EXPECT_EQ(rig.net.switch_at(rig.s1).route_count(rig.b), 2u);
  EXPECT_EQ(rig.net.switch_at(rig.s2).route_count(rig.a), 2u);
  // The middle switches have a single next hop each way.
  EXPECT_EQ(rig.net.switch_at(rig.m1).route_count(rig.b), 1u);
}

TEST(EcmpTest, FlowSticksToOnePath) {
  // All packets of one flow must hash to the same next hop (FIFO per flow).
  DiamondRig rig;
  const auto pick = rig.net.switch_at(rig.s1).route(rig.b, /*flow_id=*/42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rig.net.switch_at(rig.s1).route(rig.b, 42), pick);
  }
}

TEST(EcmpTest, ManyFlowsSpreadAcrossPaths) {
  DiamondRig rig;
  int first = 0, second = 0;
  const auto reference = rig.net.switch_at(rig.s1).route(rig.b, 1);
  for (std::uint64_t flow = 1; flow <= 200; ++flow) {
    (rig.net.switch_at(rig.s1).route(rig.b, flow) == reference ? first : second)++;
  }
  // A 200-flow hash should land well away from 200/0.
  EXPECT_GT(first, 50);
  EXPECT_GT(second, 50);
}

TEST(EcmpTest, MessagesDeliveredInOrderPerChannel) {
  DiamondRig rig;
  std::vector<std::uint64_t> sizes;
  rig.net.host(rig.b).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        sizes.push_back(bytes);
      });
  for (std::uint64_t i = 1; i <= 20; ++i) {
    rig.net.host(rig.a).send_message(rig.b, i * 1000, 0, /*channel=*/0);
  }
  rig.sim.run();
  ASSERT_EQ(sizes.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(sizes[i], (i + 1) * 1000);
}

TEST(EcmpTest, ParallelPathsCarryMoreThanOne) {
  // With two disjoint 10 G paths, two flows (hashing to different paths in
  // this topology) together exceed a single path's capacity.
  DiamondRig rig;
  // Use two channels -> two flows with different ids.
  rig.net.host(rig.a).send_message(rig.b, 8'000'000, 0, 0);
  rig.net.host(rig.a).send_message(rig.b, 8'000'000, 0, 1);
  rig.sim.run();
  const auto& stats = rig.net.host(rig.b).stats();
  EXPECT_EQ(stats.bytes_received, 16'000'000u);
}

TEST(EcmpTest, ManyChannelsUseBothPaths) {
  // End to end: messages on many channels (one flow id each) from a to b
  // must not all hash onto one middle switch.
  DiamondRig rig;
  for (std::uint32_t channel = 0; channel < 16; ++channel) {
    rig.net.host(rig.a).send_message(rig.b, 50'000, 0, channel);
  }
  rig.sim.run();
  EXPECT_EQ(rig.net.host(rig.b).stats().bytes_received, 16u * 50'000u);
  EXPECT_GT(rig.net.switch_at(rig.m1).stats().packets_forwarded, 0u);
  EXPECT_GT(rig.net.switch_at(rig.m2).stats().packets_forwarded, 0u);
}

}  // namespace
}  // namespace src::net

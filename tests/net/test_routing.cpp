#include <gtest/gtest.h>

#include <vector>

#include "net/topology.hpp"

namespace src::net {
namespace {

using common::Rate;

// Diamond: a - s1 - {m1, m2} - s2 - b. The two paths tie in length; routing
// keeps one next hop per destination, the first port in connection order,
// so every flow between a and b crosses m1. (The suite keeps the name it had
// when the diamond tested multipath routing.)
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

TEST(RoutingTest, TiedPathsResolveToTheFirstConnectedMiddleSwitch) {
  // Sixteen channels are sixteen flows with distinct ids; all of them, and
  // the CNPs flowing back, take the one route through m1.
  DiamondRig rig;
  for (std::uint32_t channel = 0; channel < 16; ++channel) {
    rig.net.host(rig.a).send_message(rig.b, 50'000, 0, channel);
  }
  rig.sim.run();
  EXPECT_EQ(rig.net.host(rig.b).stats().bytes_received, 16u * 50'000u);
  EXPECT_EQ(rig.net.host(rig.b).stats().messages_received, 16u);
  EXPECT_GT(rig.net.switch_at(rig.m1).stats().packets_forwarded, 0u);
  EXPECT_EQ(rig.net.switch_at(rig.m2).stats().packets_forwarded, 0u);
  // s1 reaches b through its port to m1 (port 1), s2 reaches a likewise.
  EXPECT_EQ(rig.net.switch_at(rig.s1).route(rig.b), 1);
  EXPECT_EQ(rig.net.switch_at(rig.s2).route(rig.a), 1);
}

}  // namespace
}  // namespace src::net

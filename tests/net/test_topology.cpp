#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace src::net {
namespace {

using common::Rate;

TEST(TopologyTest, StarConnectsAllHosts) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  Network net(lanes, NetConfig{});
  const auto topo = make_star(net, 5, Rate::gbps(10.0), common::kMicrosecond);
  ASSERT_EQ(topo.hosts.size(), 5u);

  std::uint64_t delivered = 0;
  net.host(topo.hosts[4]).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        delivered += bytes;
      });
  net.host(topo.hosts[0]).send_message(topo.hosts[4], 1234);
  sim.run();
  EXPECT_EQ(delivered, 1234u);
}

TEST(TopologyTest, DumbbellRoutesAcrossBottleneck) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  Network net(lanes, NetConfig{});
  const auto topo = make_dumbbell(net, 3, Rate::gbps(10.0), Rate::gbps(10.0),
                                  common::kMicrosecond);
  std::uint64_t delivered = 0;
  net.host(topo.right_hosts[2]).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        delivered += bytes;
      });
  net.host(topo.left_hosts[0]).send_message(topo.right_hosts[2], 9999);
  sim.run();
  EXPECT_EQ(delivered, 9999u);
}

TEST(TopologyTest, DumbbellBottleneckLimitsAggregate) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig cfg;
  cfg.dcqcn.enabled = false;
  Network net(lanes, cfg);
  const auto topo = make_dumbbell(net, 2, Rate::gbps(10.0), Rate::gbps(1.0),
                                  common::kMicrosecond);
  std::uint64_t delivered = 0;
  for (const NodeId h : topo.right_hosts) {
    net.host(h).set_data_handler(
        [&](NodeId, std::uint32_t bytes, std::uint32_t) { delivered += bytes; });
  }
  net.host(topo.left_hosts[0]).send_message(topo.right_hosts[0], 10'000'000);
  net.host(topo.left_hosts[1]).send_message(topo.right_hosts[1], 10'000'000);
  sim.run_until(10 * common::kMillisecond);
  // 1 Gbps bottleneck moves at most ~1.25 MB in 10 ms.
  EXPECT_LT(delivered, 1'400'000u);
}

TEST(TopologyTest, ClosBuildsPaperScale) {
  sim::LaneGroup lanes{1, 1};
  Network net(lanes, NetConfig{});
  const auto topo = make_clos(net);
  // 4 pods x 4 ToRs x 16 hosts = 256 hosts; 16 ToRs; 8 leaves.
  EXPECT_EQ(topo.hosts.size(), 256u);
  EXPECT_EQ(topo.tors.size(), 16u);
  EXPECT_EQ(topo.leaves.size(), 8u);
}

TEST(TopologyTest, ClosCrossPodDelivery) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  ClosParams params;
  params.pods = 2;
  params.leaves_per_pod = 2;
  params.tors_per_pod = 2;
  params.hosts_per_tor = 2;
  Network net(lanes, NetConfig{});
  const auto topo = make_clos(net, params);
  ASSERT_EQ(topo.hosts.size(), 8u);

  // First host of pod 0 to last host of pod 1 (cross-pod path via leaves).
  std::uint64_t delivered = 0;
  net.host(topo.hosts.back()).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        delivered += bytes;
      });
  net.host(topo.hosts.front()).send_message(topo.hosts.back(), 4096);
  sim.run();
  EXPECT_EQ(delivered, 4096u);
}

TEST(TopologyTest, ClosAllPairsReachable) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  ClosParams params;
  params.pods = 2;
  params.leaves_per_pod = 1;
  params.tors_per_pod = 2;
  params.hosts_per_tor = 2;
  Network net(lanes, NetConfig{});
  const auto topo = make_clos(net, params);

  int delivered = 0;
  for (const NodeId h : topo.hosts) {
    net.host(h).set_message_handler(
        [&](NodeId, const MessageHeader&, std::uint64_t, std::uint32_t) { ++delivered; });
  }
  int sent = 0;
  for (const NodeId from : topo.hosts) {
    for (const NodeId to : topo.hosts) {
      if (from == to) continue;
      net.host(from).send_message(to, 256);
      ++sent;
    }
  }
  sim.run();
  EXPECT_EQ(delivered, sent);
}

}  // namespace
}  // namespace src::net

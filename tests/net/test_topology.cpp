#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <utility>

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

TEST(TopologyTest, PodRoutesAcrossPods) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  Network net(lanes, NetConfig{});
  const PodGrammar grammar{.pods = 2, .racks_per_pod = 1, .hosts_per_rack = 3};
  const auto topo = make_pod(net, grammar, PartitionPolicy::kNone);
  ASSERT_EQ(topo.hosts.size(), 6u);
  std::uint64_t delivered = 0;
  net.host(topo.hosts[5]).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        delivered += bytes;
      });
  net.host(topo.hosts[0]).send_message(topo.hosts[5], 9999);
  sim.run();
  EXPECT_EQ(delivered, 9999u);
}

TEST(TopologyTest, PodRackUplinkLimitsAggregate) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig cfg;
  cfg.dcqcn.enabled = false;
  Network net(lanes, cfg);
  // One rack per pod: both flows leave pod 0 through its 1 Gbps rack uplink.
  const PodGrammar grammar{.pods = 2, .racks_per_pod = 1, .hosts_per_rack = 2,
                           .host_rate = Rate::gbps(10.0),
                           .rack_uplink_rate = Rate::gbps(1.0)};
  const auto topo = make_pod(net, grammar, PartitionPolicy::kNone);
  std::uint64_t delivered = 0;
  for (const NodeId h : {topo.hosts[2], topo.hosts[3]}) {
    net.host(h).set_data_handler(
        [&](NodeId, std::uint32_t bytes, std::uint32_t) { delivered += bytes; });
  }
  net.host(topo.hosts[0]).send_message(topo.hosts[2], 10'000'000);
  net.host(topo.hosts[1]).send_message(topo.hosts[3], 10'000'000);
  sim.run_until(10 * common::kMillisecond);
  // The 1 Gbps uplink moves at most ~1.25 MB in 10 ms.
  EXPECT_LT(delivered, 1'400'000u);
}

TEST(TopologyTest, PodBuildsPaperScale) {
  // 4 pods x 4 racks x 16 hosts = 256 hosts; 16 ToRs; 4 aggregations.
  const PodGrammar grammar{.pods = 4, .racks_per_pod = 4, .hosts_per_rack = 16};
  for (const auto& [policy, shards] :
       {std::pair{PartitionPolicy::kByRack, 21u}, std::pair{PartitionPolicy::kByPod, 5u},
        std::pair{PartitionPolicy::kNone, 1u}}) {
    SCOPED_TRACE(partition_policy_name(policy));
    sim::LaneGroup lanes{shards, 1};
    Network net(lanes, NetConfig{});
    const auto topo = make_pod(net, grammar, policy);
    EXPECT_EQ(topo.hosts.size(), 256u);
    EXPECT_EQ(topo.tors.size(), 16u);
    EXPECT_EQ(topo.aggs.size(), 4u);
    EXPECT_EQ(topo.plan.shard_count(), shards);
  }
}

// The two delivery tests run the rack partition (7 shards) at 1 and 2
// lanes; every cross-rack hop then crosses a shard boundary.
const PodGrammar kSmallPod{.pods = 2, .racks_per_pod = 2, .hosts_per_rack = 2};

TEST(TopologyTest, PodCrossPodDelivery) {
  for (const std::size_t lane_count : {1u, 2u}) {
    SCOPED_TRACE(lane_count);
    sim::LaneGroup lanes{PodShardPlan{2, 2, PartitionPolicy::kByRack}.shard_count(),
                         lane_count};
    Network net(lanes, NetConfig{});
    const auto topo = make_pod(net, kSmallPod, PartitionPolicy::kByRack);
    ASSERT_EQ(topo.hosts.size(), 8u);

    // First host of pod 0 to last host of pod 1 (via ToR, agg and spine).
    std::uint64_t delivered = 0;
    net.host(topo.hosts.back()).set_message_handler(
        [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
          delivered += bytes;
        });
    net.host(topo.hosts.front()).send_message(topo.hosts.back(), 4096);
    lanes.run_until(common::kSecond);
    EXPECT_EQ(delivered, 4096u);
  }
}

TEST(TopologyTest, PodAllPairsReachable) {
  for (const std::size_t lane_count : {1u, 2u}) {
    SCOPED_TRACE(lane_count);
    sim::LaneGroup lanes{PodShardPlan{2, 2, PartitionPolicy::kByRack}.shard_count(),
                         lane_count};
    Network net(lanes, NetConfig{});
    const auto topo = make_pod(net, kSmallPod, PartitionPolicy::kByRack);

    std::atomic<int> delivered{0};  // receivers run on several lanes
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
    lanes.run_until(common::kSecond);
    EXPECT_EQ(delivered.load(), sent);
  }
}

}  // namespace
}  // namespace src::net

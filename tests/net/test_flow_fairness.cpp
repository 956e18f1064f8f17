#include <gtest/gtest.h>

#include <array>

#include "net/topology.hpp"

namespace src::net {
namespace {

using common::Rate;

TEST(FlowFairnessTest, RoundRobinSharesUplinkAcrossDestinations) {
  // One sender, three receivers, all links equal: each destination's flow
  // gets roughly a third of the uplink.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  config.dcqcn.enabled = false;
  Network net(lanes, config);
  const auto topo = make_star(net, 4, Rate::gbps(12.0), common::kMicrosecond);

  std::array<std::uint64_t, 3> received{};
  for (int r = 0; r < 3; ++r) {
    net.host(topo.hosts[1 + r]).set_data_handler(
        [&received, r](NodeId, std::uint32_t bytes, std::uint32_t) {
          received[static_cast<std::size_t>(r)] += bytes;
        });
    net.host(topo.hosts[0]).send_message(topo.hosts[1 + r], 50'000'000);
  }
  sim.run_until(10 * common::kMillisecond);
  const double total = static_cast<double>(received[0] + received[1] + received[2]);
  for (const auto bytes : received) {
    EXPECT_NEAR(static_cast<double>(bytes) / total, 1.0 / 3.0, 0.05);
  }
}

TEST(FlowFairnessTest, ChannelsOfOnePairShareFairly) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  config.dcqcn.enabled = false;
  Network net(lanes, config);
  const auto topo = make_star(net, 2, Rate::gbps(10.0), common::kMicrosecond);

  // Two channels with equal demand: the per-channel flows interleave.
  net.host(topo.hosts[0]).send_message(topo.hosts[1], 20'000'000, /*tag=*/1, 0);
  net.host(topo.hosts[0]).send_message(topo.hosts[1], 20'000'000, /*tag=*/2, 1);
  std::array<std::uint64_t, 3> by_tag{};
  net.host(topo.hosts[1]).set_data_handler(
      [&](NodeId, std::uint32_t bytes, std::uint32_t tag) {
        by_tag[tag] += bytes;
      });
  sim.run_until(8 * common::kMillisecond);
  ASSERT_GT(by_tag[1], 0u);
  ASSERT_GT(by_tag[2], 0u);
  const double ratio = static_cast<double>(by_tag[1]) / static_cast<double>(by_tag[2]);
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(FlowFairnessTest, DcqcnConvergesTowardFairShareUnderIncast) {
  // Two senders into one 10 G sink with DCQCN: long-run shares are roughly
  // equal (within the sawtooth).
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  Network net(lanes, NetConfig{});
  const auto topo = make_star(net, 3, Rate::gbps(10.0), common::kMicrosecond);
  std::array<std::uint64_t, 2> received{};
  net.host(topo.hosts[0]).set_data_handler(
      [&](NodeId from, std::uint32_t bytes, std::uint32_t) {
        received[from == topo.hosts[1] ? 0 : 1] += bytes;
      });
  net.host(topo.hosts[1]).send_message(topo.hosts[0], 40'000'000);
  net.host(topo.hosts[2]).send_message(topo.hosts[0], 40'000'000);
  sim.run_until(30 * common::kMillisecond);
  const double total = static_cast<double>(received[0] + received[1]);
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(static_cast<double>(received[0]) / total, 0.5, 0.2);
}

}  // namespace
}  // namespace src::net

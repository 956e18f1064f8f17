// Determinism regression for the unordered-iteration hazards srclint R2
// uncovered (PR 3): Host::total_allowed_rate() sums per-flow DCQCN rates
// in floating point, and that sum feeds the SRC congestion callback — so
// its iteration order is observable. The fix iterates flows in creation
// order (flow_order_), never hash-table order. This test pins the
// contract: the reported aggregate equals the exact left-fold of per-flow
// rates in flow creation order, bit for bit, even after congestion has
// driven the flows to different rates.
#include <gtest/gtest.h>

#include "net/host.hpp"
#include "net/network.hpp"

namespace src::net {
namespace {

using common::Rate;

TEST(HostIterationOrder, TotalAllowedRateFoldsFlowsInCreationOrder) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  Network net(lanes, config);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId s = net.add_switch("s");
  // Oversubscribed: a 40 Gb/s uplink into a 10 Gb/s sink link, so the
  // switch queue builds, ECN marks, and DCQCN throttles the flows.
  net.connect(a, s, Rate::gbps(40.0), common::kMicrosecond);
  net.connect(b, s, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();

  // Four flows (channels) created in a known order, enough backlog that
  // every flow still has queued bytes when we sample, and enough traffic
  // into one 10 Gb/s sink that ECN/DCQCN throttles the flows unevenly.
  constexpr std::uint32_t kChannels = 4;
  Host& host = net.host(a);
  for (std::uint32_t channel = 0; channel < kChannels; ++channel) {
    // Staggered starts desynchronize the per-flow DCQCN state machines,
    // so the flows sit at different rates when we sample.
    const std::uint64_t bytes = 2'000'000u * (channel + 1);
    sim.schedule_at(channel * 300 * common::kMicrosecond,
                    [&host, b, bytes, channel] {
                      host.send_message(b, bytes, /*tag=*/channel, channel);
                    });
  }
  sim.run_until(2 * common::kMillisecond);

  ASSERT_GT(host.txq_bytes(b), 0u) << "flows must still have backlog";

  // The exact fold the implementation promises: flow creation order.
  Rate expected = Rate::zero();
  for (std::uint32_t channel = 0; channel < kChannels; ++channel) {
    expected = expected + host.flow_rate(b, channel);
  }
  const Rate total = host.total_allowed_rate();
  EXPECT_EQ(total.as_gbps(), expected.as_gbps())
      << "aggregate rate must be the creation-order left-fold (iteration "
         "order of the flow table is observable through this FP sum)";

  // Sanity: congestion actually produced distinct per-flow rates, so the
  // assertion above genuinely constrains summation order.
  bool rates_diverged = false;
  for (std::uint32_t channel = 1; channel < kChannels; ++channel) {
    if (host.flow_rate(b, channel).as_gbps() !=
        host.flow_rate(b, 0).as_gbps()) {
      rates_diverged = true;
    }
  }
  EXPECT_TRUE(rates_diverged)
      << "test setup must drive flows to different rates";
}

TEST(HostIterationOrder, TxqByteCountsMatchAcrossAccessors) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  Network net(lanes, config);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId s = net.add_switch("s");
  net.connect(a, s, Rate::gbps(10.0), common::kMicrosecond);
  net.connect(b, s, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();

  Host& host = net.host(a);
  host.send_message(b, 500'000, 0, 0);
  host.send_message(b, 250'000, 0, 1);
  sim.run_until(50 * common::kMicrosecond);

  // Integer sums are order-insensitive, but the accessors must agree with
  // each other regardless of which container they walk.
  EXPECT_EQ(host.txq_bytes(b), host.txq_bytes(b));
  EXPECT_GT(host.txq_bytes(b), 0u);
}

}  // namespace
}  // namespace src::net

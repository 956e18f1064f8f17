#include "net/dctcp.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace src::net {
namespace {

using common::Rate;

struct Harness {
  sim::Simulator sim;
  DctcpParams params;
  Rate line = Rate::gbps(40.0);
  DctcpController make() { return DctcpController(sim, params, line); }
};

TEST(DctcpTest, StartsAtLineRateWithZeroAlpha) {
  Harness h;
  auto ctl = h.make();
  EXPECT_DOUBLE_EQ(ctl.current_rate().as_gbps(), 40.0);
  EXPECT_DOUBLE_EQ(ctl.alpha(), 0.0);
}

TEST(DctcpTest, CutHappensAtWindowEndNotPerEcho) {
  Harness h;
  auto ctl = h.make();
  ctl.on_congestion_feedback();
  // Nothing happens until the observation window closes.
  EXPECT_DOUBLE_EQ(ctl.current_rate().as_gbps(), 40.0);
  h.sim.run_until(h.params.observation_window + 1);
  EXPECT_LT(ctl.current_rate().as_gbps(), 40.0);
}

TEST(DctcpTest, CutProportionalToMarkFraction) {
  // A fully-marked window drives alpha toward 1 faster than a 10%-marked
  // window, so the cut is deeper.
  auto cut_after_one_window = [](int sent, int marked) {
    Harness h;
    auto ctl = h.make();
    for (int i = 0; i < sent; ++i) ctl.on_bytes_sent(1064);
    for (int i = 0; i < marked; ++i) ctl.on_congestion_feedback();
    h.sim.run_until(h.params.observation_window + 1);
    return ctl.current_rate().as_gbps();
  };
  EXPECT_LT(cut_after_one_window(100, 100), cut_after_one_window(100, 10));
}

TEST(DctcpTest, AlphaDecaysInCleanWindows) {
  Harness h;
  auto ctl = h.make();
  for (int i = 0; i < 50; ++i) ctl.on_congestion_feedback();
  h.sim.run_until(h.params.observation_window + 1);
  const double alpha_after_marks = ctl.alpha();
  EXPECT_GT(alpha_after_marks, 0.0);
  // Clean windows while still recovering: alpha decays geometrically.
  for (int i = 0; i < 20; ++i) ctl.on_bytes_sent(1064);
  h.sim.run_until(h.sim.now() + 10 * h.params.observation_window);
  EXPECT_LT(ctl.alpha(), alpha_after_marks);
}

TEST(DctcpTest, RecoversToLineRate) {
  Harness h;
  auto ctl = h.make();
  for (int i = 0; i < 100; ++i) ctl.on_congestion_feedback();
  h.sim.run_until(h.params.observation_window + 1);
  EXPECT_LT(ctl.current_rate().as_gbps(), 40.0);
  // Additive increase, one step per clean window.
  ctl.on_bytes_sent(1064);
  h.sim.run_until(h.sim.now() + common::seconds(1.0));
  EXPECT_DOUBLE_EQ(ctl.current_rate().as_gbps(), 40.0);
}

TEST(DctcpTest, RateNeverBelowMinimum) {
  Harness h;
  auto ctl = h.make();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) ctl.on_congestion_feedback();
    h.sim.run_until(h.sim.now() + h.params.observation_window + 1);
  }
  EXPECT_GE(ctl.current_rate().as_bytes_per_second(),
            h.params.min_rate.as_bytes_per_second());
}

TEST(DctcpTest, HostsRunDctcpEndToEnd) {
  // In-cast with DCTCP selected: throttling happens and delivery is
  // lossless, without any DCQCN CNP pacing.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  config.cc_algorithm = static_cast<int>(CcAlgorithm::kDctcp);
  Network net(lanes, config);
  const NodeId hub = net.add_switch("hub");
  const NodeId sink = net.add_host("sink");
  net.connect(sink, hub, Rate::gbps(10.0), common::kMicrosecond);
  std::vector<NodeId> senders;
  for (int i = 0; i < 4; ++i) {
    std::string sender_name = "s";
    sender_name += std::to_string(i);
    const NodeId s = net.add_host(sender_name);
    net.connect(s, hub, Rate::gbps(10.0), common::kMicrosecond);
    senders.push_back(s);
  }
  net.finalize();

  for (const NodeId s : senders) net.host(s).send_message(sink, 1'000'000);
  sim.run_until(5 * common::kMillisecond);
  bool throttled = false;
  for (const NodeId s : senders) {
    if (net.host(s).flow_rate(sink).as_gbps() < 9.9) throttled = true;
  }
  EXPECT_TRUE(throttled);
  sim.run();
  EXPECT_EQ(net.host(sink).stats().bytes_received, 4u * 1'000'000u);
}

TEST(DctcpTest, EchoesEveryMarkWithoutPacing) {
  // Two back-to-back marked packets must produce two feedback packets in
  // DCTCP mode (DCQCN would pace them to one per 50 us).
  sim::LaneGroup lanes{1, 1};
  NetConfig config;
  config.cc_algorithm = static_cast<int>(CcAlgorithm::kDctcp);
  Network net(lanes, config);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId hub = net.add_switch("hub");
  net.connect(a, hub, Rate::gbps(10.0), common::kMicrosecond);
  net.connect(b, hub, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();

  Packet marked;
  marked.kind = PacketKind::kData;
  marked.dst = b;
  marked.flow_id = id_base(a) + 1;  // a's first flow
  marked.bytes = 1024;
  marked.ecn_marked = true;
  net.host(b).receive(marked, 0);
  net.host(b).receive(marked, 0);
  EXPECT_EQ(net.host(b).stats().cnps_sent, 2u);
}

}  // namespace
}  // namespace src::net

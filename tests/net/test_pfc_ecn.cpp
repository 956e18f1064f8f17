#include <gtest/gtest.h>

#include "net/network.hpp"

namespace src::net {
namespace {

using common::Rate;

// In-cast rig: several senders all pushing to one receiver through a hub;
// the receiver's downlink is the congestion point.
struct IncastRig {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  Network net;
  std::vector<NodeId> senders;
  NodeId sink;
  NodeId hub;

  explicit IncastRig(NetConfig cfg, std::size_t n_senders = 4)
      : config(cfg), net(lanes, config) {
    hub = net.add_switch("hub");
    sink = net.add_host("sink");
    net.connect(sink, hub, Rate::gbps(10.0), common::kMicrosecond);
    for (std::size_t i = 0; i < n_senders; ++i) {
      const NodeId s = net.add_host("sender" + std::to_string(i));
      net.connect(s, hub, Rate::gbps(10.0), common::kMicrosecond);
      senders.push_back(s);
    }
    net.finalize();
  }

  void blast(std::uint64_t bytes_per_sender) {
    for (const NodeId s : senders) net.host(s).send_message(sink, bytes_per_sender);
  }
};

TEST(EcnTest, IncastTriggersMarking) {
  NetConfig cfg;
  cfg.pfc.enabled = false;  // isolate ECN
  IncastRig rig(cfg);
  rig.blast(2'000'000);
  rig.sim.run_until(10 * common::kMillisecond);
  EXPECT_GT(rig.net.host(rig.sink).stats().ecn_marked_received, 0u);
  EXPECT_GT(rig.net.host(rig.sink).stats().cnps_sent, 0u);
}

TEST(EcnTest, CnpsThrottleSenders) {
  NetConfig cfg;
  cfg.pfc.enabled = false;
  IncastRig rig(cfg);
  rig.blast(4'000'000);
  rig.sim.run_until(5 * common::kMillisecond);
  // At least one sender must have been cut below line rate.
  bool throttled = false;
  for (const NodeId s : rig.senders) {
    if (rig.net.host(s).flow_rate(rig.sink).as_gbps() < 9.9) throttled = true;
  }
  EXPECT_TRUE(throttled);
  for (const NodeId s : rig.senders) {
    EXPECT_GT(rig.net.host(s).stats().cnps_received, 0u);
  }
}

TEST(EcnTest, NoMarkingWithoutCongestion) {
  NetConfig cfg;
  IncastRig rig(cfg, /*n_senders=*/1);
  rig.blast(100'000);  // single sender cannot congest an equal-speed path
  rig.sim.run();
  EXPECT_EQ(rig.net.host(rig.sink).stats().ecn_marked_received, 0u);
}

TEST(EcnTest, DisabledEcnNeverMarks) {
  NetConfig cfg;
  cfg.ecn.enabled = false;
  cfg.dcqcn.enabled = false;
  cfg.pfc.enabled = false;
  IncastRig rig(cfg);
  rig.blast(1'000'000);
  rig.sim.run();
  EXPECT_EQ(rig.net.host(rig.sink).stats().ecn_marked_received, 0u);
}

TEST(PfcTest, DeepIncastSendsPauses) {
  NetConfig cfg;
  cfg.ecn.enabled = false;    // force PFC to carry the burden
  cfg.dcqcn.enabled = false;
  cfg.pfc.xoff_bytes = 64 * 1024;
  cfg.pfc.xon_bytes = 32 * 1024;
  IncastRig rig(cfg, /*n_senders=*/6);
  rig.blast(2'000'000);
  rig.sim.run_until(10 * common::kMillisecond);
  std::uint64_t pauses = 0;
  for (const NodeId s : rig.senders) pauses += rig.net.host(s).stats().pauses_received;
  EXPECT_GT(pauses, 0u);
  EXPECT_GT(rig.net.switch_at(rig.hub).stats().pauses_sent, 0u);
}

TEST(PfcTest, PausedTrafficResumesAndCompletes) {
  NetConfig cfg;
  cfg.ecn.enabled = false;
  cfg.dcqcn.enabled = false;
  cfg.pfc.xoff_bytes = 64 * 1024;
  cfg.pfc.xon_bytes = 32 * 1024;
  IncastRig rig(cfg, /*n_senders=*/6);
  rig.blast(500'000);
  rig.sim.run();
  // Losslessness: every byte eventually arrives despite pauses.
  EXPECT_EQ(rig.net.host(rig.sink).stats().bytes_received, 6u * 500'000u);
  EXPECT_GT(rig.net.switch_at(rig.hub).stats().resumes_sent, 0u);
}

TEST(PfcTest, LosslessUnderCombinedEcnPfc) {
  NetConfig cfg;  // defaults: both enabled
  IncastRig rig(cfg, /*n_senders=*/8);
  rig.blast(400'000);
  rig.sim.run();
  EXPECT_EQ(rig.net.host(rig.sink).stats().bytes_received, 8u * 400'000u);
}

TEST(PfcTest, PauseHandlerInvoked) {
  NetConfig cfg;
  cfg.ecn.enabled = false;
  cfg.dcqcn.enabled = false;
  cfg.pfc.xoff_bytes = 32 * 1024;
  cfg.pfc.xon_bytes = 16 * 1024;
  IncastRig rig(cfg, /*n_senders=*/6);
  int pause_events = 0;
  for (const NodeId s : rig.senders) {
    rig.net.host(s).set_pause_handler([&] { ++pause_events; });
  }
  rig.blast(1'000'000);
  rig.sim.run_until(5 * common::kMillisecond);
  EXPECT_GT(pause_events, 0);
}

}  // namespace
}  // namespace src::net

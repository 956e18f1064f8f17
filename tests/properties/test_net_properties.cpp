// Property sweeps over the network: losslessness, conservation and DCQCN
// bounds across in-cast fan-ins, link speeds and control-plane settings.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/topology.hpp"

namespace src::net {
namespace {

using common::Rate;

struct NetCell {
  std::size_t senders;
  double link_gbps;
  bool ecn;
  bool pfc;
  bool dcqcn;
};

std::string net_cell_name(const ::testing::TestParamInfo<NetCell>& info) {
  // Built incrementally: a chain of operator+ trips GCC 12's -O3
  // -Wrestrict false positive, and the hardened profile is -Werror.
  const auto& p = info.param;
  std::string name = "s";
  name += std::to_string(p.senders);
  name += "_g";
  name += std::to_string(static_cast<int>(p.link_gbps));
  if (p.ecn) name += "_ecn";
  if (p.pfc) name += "_pfc";
  if (p.dcqcn) name += "_dcqcn";
  return name;
}

class NetPropertyTest : public ::testing::TestWithParam<NetCell> {
 protected:
  struct Run {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t messages_sent = 0;
    common::SimTime finish = 0;
  };

  Run run_incast(std::uint64_t bytes_per_sender) {
    const NetCell cell = GetParam();
    sim::LaneGroup lanes{1, 1};
    sim::Simulator& sim = lanes.kernel(0);
    NetConfig config;
    config.ecn.enabled = cell.ecn;
    config.pfc.enabled = cell.pfc;
    config.dcqcn.enabled = cell.dcqcn;
    // Keep PFC meaningfully reachable when it is the only mechanism.
    config.pfc.xoff_bytes = 96 * 1024;
    config.pfc.xon_bytes = 48 * 1024;
    Network net(lanes, config);
    const NodeId hub = net.add_switch("hub");
    const NodeId sink = net.add_host("sink");
    net.connect(sink, hub, Rate::gbps(cell.link_gbps), common::kMicrosecond);
    std::vector<NodeId> senders;
    for (std::size_t i = 0; i < cell.senders; ++i) {
      std::string sender_name = "s";
      sender_name += std::to_string(i);
      const NodeId s = net.add_host(sender_name);
      net.connect(s, hub, Rate::gbps(cell.link_gbps), common::kMicrosecond);
      senders.push_back(s);
    }
    net.finalize();

    Run run;
    net.host(sink).set_message_handler(
        [&](NodeId, const MessageHeader&, std::uint64_t, std::uint32_t) {
          ++run.messages_delivered;
        });
    for (const NodeId s : senders) {
      net.host(s).send_message(sink, bytes_per_sender);
      ++run.messages_sent;
      run.sent += bytes_per_sender;
    }
    sim.run();
    run.received = net.host(sink).stats().bytes_received;
    run.finish = sim.now();
    return run;
  }
};

TEST_P(NetPropertyTest, LosslessDelivery) {
  const Run run = run_incast(300'000);
  EXPECT_EQ(run.received, run.sent);
  EXPECT_EQ(run.messages_delivered, run.messages_sent);
}

TEST_P(NetPropertyTest, ThroughputBoundedByBottleneck) {
  const Run run = run_incast(300'000);
  const double seconds = common::to_seconds(run.finish);
  const double achieved_gbps = static_cast<double>(run.received) * 8.0 / seconds / 1e9;
  // Payload rate can never exceed the sink's line rate (headers make the
  // effective payload rate strictly lower).
  EXPECT_LT(achieved_gbps, GetParam().link_gbps);
}

TEST_P(NetPropertyTest, DeterministicDelivery) {
  const Run a = run_incast(200'000);
  const Run b = run_incast(200'000);
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.received, b.received);
}

INSTANTIATE_TEST_SUITE_P(
    FanInAndControls, NetPropertyTest,
    ::testing::Values(NetCell{2, 10.0, true, true, true},
                      NetCell{4, 10.0, true, true, true},
                      NetCell{8, 10.0, true, true, true},
                      NetCell{4, 40.0, true, true, true},
                      NetCell{4, 10.0, false, true, false},   // PFC only
                      NetCell{4, 10.0, true, false, true},    // ECN/DCQCN only
                      NetCell{2, 10.0, false, false, false}), // raw FIFO
    net_cell_name);

// DCQCN rate trajectory properties across parameterizations.
class DcqcnPropertyTest
    : public ::testing::TestWithParam<std::pair<int, double>> {};

TEST_P(DcqcnPropertyTest, RateStaysWithinBounds) {
  const auto [cnps, line_gbps] = GetParam();
  sim::Simulator sim;
  DcqcnParams params;
  DcqcnController ctl(sim, params, Rate::gbps(line_gbps));
  std::uint64_t state = 42;
  bool in_bounds = true;
  ctl.set_rate_change_handler([&](Rate r, bool) {
    if (r.as_bytes_per_second() >
            Rate::gbps(line_gbps).as_bytes_per_second() + 1.0 ||
        r.as_bytes_per_second() < params.min_rate.as_bytes_per_second() - 1.0) {
      in_bounds = false;
    }
  });
  for (int i = 0; i < cnps; ++i) {
    sim.run_until(sim.now() +
                  static_cast<common::SimTime>(common::splitmix64(state) % 300'000));
    ctl.on_cnp();
  }
  sim.run_until(sim.now() + common::seconds(1.0));
  EXPECT_TRUE(in_bounds);
  EXPECT_DOUBLE_EQ(ctl.current_rate().as_gbps(), line_gbps);  // full recovery
}

INSTANTIATE_TEST_SUITE_P(CnpStorms, DcqcnPropertyTest,
                         ::testing::Values(std::pair{1, 40.0},
                                           std::pair{10, 40.0},
                                           std::pair{100, 40.0},
                                           std::pair{25, 10.0},
                                           std::pair{25, 100.0}));

}  // namespace
}  // namespace src::net

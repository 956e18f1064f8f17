#include "net/host.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/network.hpp"

namespace src::net {
namespace {

using common::Rate;

struct Rig {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  Network net;
  NodeId a, b, s;

  explicit Rig(NetConfig cfg = NetConfig{}) : config(cfg), net(lanes, config) {
    a = net.add_host("a");
    b = net.add_host("b");
    s = net.add_switch("s");
    net.connect(a, s, Rate::gbps(10.0), common::kMicrosecond);
    net.connect(b, s, Rate::gbps(10.0), common::kMicrosecond);
    net.finalize();
  }
};

TEST(HostMessagingTest, TagsArePreserved) {
  Rig rig;
  std::uint32_t seen_tag = 0;
  rig.net.host(rig.b).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t, std::uint32_t tag) { seen_tag = tag; });
  rig.net.host(rig.a).send_message(rig.b, 100, /*tag=*/42);
  rig.sim.run();
  EXPECT_EQ(seen_tag, 42u);
}

TEST(HostMessagingTest, InterleavedMessagesReassembleIndependently) {
  Rig rig;
  std::vector<std::uint64_t> sizes;
  rig.net.host(rig.b).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        sizes.push_back(bytes);
      });
  rig.net.host(rig.a).send_message(rig.b, 5000, 1);
  rig.net.host(rig.a).send_message(rig.b, 3000, 2);
  rig.sim.run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 8000u);
}

TEST(HostMessagingTest, ChannelsAreIndependentFlows) {
  Rig rig;
  // A big message on channel 0 must not delay a capsule on channel 1 by the
  // full message length: round-robin interleaves the flows.
  common::SimTime capsule_at = -1, bulk_at = -1;
  rig.net.host(rig.b).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        if (bytes == 64) capsule_at = rig.sim.now();
        else bulk_at = rig.sim.now();
      });
  rig.net.host(rig.a).send_message(rig.b, 1'000'000, 0, /*channel=*/0);
  rig.net.host(rig.a).send_message(rig.b, 64, 0, /*channel=*/1);
  rig.sim.run();
  ASSERT_GT(capsule_at, 0);
  ASSERT_GT(bulk_at, 0);
  EXPECT_LT(capsule_at, bulk_at / 10);  // capsule overtakes the bulk payload
}

TEST(HostMessagingTest, SameChannelIsFifo) {
  Rig rig;
  std::vector<std::uint64_t> order;
  rig.net.host(rig.b).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        order.push_back(bytes);
      });
  rig.net.host(rig.a).send_message(rig.b, 50'000, 0, 0);
  rig.net.host(rig.a).send_message(rig.b, 64, 0, 0);
  rig.sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 50'000u);  // FIFO within a channel
  EXPECT_EQ(order[1], 64u);
}

TEST(HostMessagingTest, TxqBytesReflectBacklog) {
  Rig rig;
  rig.net.host(rig.a).send_message(rig.b, 1'000'000);
  EXPECT_GT(rig.net.host(rig.a).txq_bytes(rig.b), 900'000u);
  rig.sim.run();
  EXPECT_EQ(rig.net.host(rig.a).txq_bytes(rig.b), 0u);
}

TEST(HostMessagingTest, StatsCount) {
  Rig rig;
  rig.net.host(rig.a).send_message(rig.b, 5000);
  rig.sim.run();
  EXPECT_EQ(rig.net.host(rig.a).stats().messages_sent, 1u);
  EXPECT_EQ(rig.net.host(rig.a).stats().bytes_sent, 5000u);
  EXPECT_EQ(rig.net.host(rig.b).stats().messages_received, 1u);
  EXPECT_EQ(rig.net.host(rig.b).stats().bytes_received, 5000u);
}

TEST(HostMessagingTest, HeaderAndSenderSurviveFragmentationAndShards) {
  // Senders on shard 0, switch and receiver on shard 1: every packet
  // crosses a lane boundary. Packets carry no source field, so the
  // receiver learns each sender from the flow id alone, and routes its
  // CNPs (every queued packet is ECN-marked) and Swift delay acks back by
  // it.
  sim::LaneGroup lanes(2, 2);
  NetConfig config;
  config.ecn.kmin_bytes = 0;
  config.ecn.kmax_bytes = 0;
  Network net(lanes, config);
  const NodeId swift = net.add_host("swift", 0);
  const NodeId dcqcn = net.add_host("dcqcn", 0);
  const NodeId sink = net.add_host("sink", 1);
  const NodeId s = net.add_switch("s", 1);
  net.connect(swift, s, Rate::gbps(10.0), common::kMicrosecond);
  net.connect(dcqcn, s, Rate::gbps(10.0), common::kMicrosecond);
  net.connect(sink, s, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();
  net.host(swift).set_cc_algorithm(static_cast<int>(CcAlgorithm::kSwift));

  struct Delivery {
    NodeId src;
    MessageHeader header;
    std::uint64_t bytes;
    std::uint32_t tag;
  };
  std::vector<Delivery> delivered;
  std::uint64_t data_from_swift = 0, data_from_dcqcn = 0, data_from_other = 0;
  net.host(sink).set_message_handler([&](NodeId src, const MessageHeader& header,
                                         std::uint64_t bytes, std::uint32_t tag) {
    delivered.push_back({src, header, bytes, tag});
  });
  net.host(sink).set_data_handler([&](NodeId src, std::uint32_t bytes, std::uint32_t) {
    (src == swift ? data_from_swift : src == dcqcn ? data_from_dcqcn : data_from_other) +=
        bytes;
  });

  const std::uint64_t big = 40 * config.mtu_bytes + 123;  // 41 fragments
  net.host(swift).send_message(sink, big, 7, 0,
                               {.word = 0x1122334455667788, .key = 0xAABBCCDD, .length = 42});
  net.host(dcqcn).send_message(sink, big, 9, 0, {.word = 5, .key = 6, .length = 7});
  lanes.run_until(10 * common::kMillisecond);

  ASSERT_EQ(delivered.size(), 2u);
  std::sort(delivered.begin(), delivered.end(),
            [](const Delivery& x, const Delivery& y) { return x.tag < y.tag; });
  EXPECT_EQ(delivered[0].src, swift);
  EXPECT_EQ(delivered[0].bytes, big);
  EXPECT_EQ(delivered[0].header.word, 0x1122334455667788u);
  EXPECT_EQ(delivered[0].header.key, 0xAABBCCDDu);
  EXPECT_EQ(delivered[0].header.length, 42u);
  EXPECT_EQ(delivered[1].src, dcqcn);
  EXPECT_EQ(delivered[1].bytes, big);
  EXPECT_EQ(delivered[1].header.word, 5u);
  EXPECT_EQ(delivered[1].header.key, 6u);
  EXPECT_EQ(delivered[1].header.length, 7u);
  EXPECT_EQ(data_from_swift, big);
  EXPECT_EQ(data_from_dcqcn, big);
  EXPECT_EQ(data_from_other, 0u);

  const HostStats& rx = net.host(sink).stats();
  EXPECT_GT(rx.cnps_sent, 0u);
  EXPECT_GT(net.host(dcqcn).stats().cnps_received, 0u);
  EXPECT_EQ(net.host(swift).stats().cnps_received +
                net.host(dcqcn).stats().cnps_received,
            rx.cnps_sent);
  EXPECT_GT(rx.delay_acks_sent, 0u);
  EXPECT_EQ(net.host(swift).stats().delay_acks_received, rx.delay_acks_sent);
  EXPECT_EQ(net.host(dcqcn).stats().delay_acks_received, 0u);
}

TEST(HostMessagingTest, FlowRateDefaultsToLineRate) {
  Rig rig;
  EXPECT_DOUBLE_EQ(rig.net.host(rig.a).flow_rate(rig.b).as_gbps(), 10.0);
}

}  // namespace
}  // namespace src::net

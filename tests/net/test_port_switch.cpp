#include "net/switch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace src::net {
namespace {

using common::Rate;

// Two hosts joined by one switch; raw port/switch behaviour.
struct Rig {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  Network net{lanes, config};
  NodeId a, b, s;

  Rig() {
    a = net.add_host("a");
    b = net.add_host("b");
    s = net.add_switch("s");
    net.connect(a, s, Rate::gbps(10.0), common::kMicrosecond);
    net.connect(b, s, Rate::gbps(10.0), common::kMicrosecond);
    net.finalize();
  }
};

TEST(PortSwitchTest, MessageDeliveredThroughSwitch) {
  Rig rig;
  std::uint64_t delivered_bytes = 0;
  rig.net.host(rig.b).set_message_handler(
      [&](NodeId src, const MessageHeader&, std::uint64_t bytes, std::uint32_t) {
        EXPECT_EQ(src, rig.a);
        delivered_bytes = bytes;
      });
  rig.net.host(rig.a).send_message(rig.b, 10'000);
  rig.sim.run();
  EXPECT_EQ(delivered_bytes, 10'000u);
  EXPECT_GT(rig.net.switch_at(rig.s).stats().packets_forwarded, 0u);
}

TEST(PortSwitchTest, MessageFragmentsToMtu) {
  Rig rig;
  int packets = 0;
  rig.net.host(rig.b).set_data_handler(
      [&](NodeId, std::uint32_t bytes, std::uint32_t) {
        EXPECT_LE(bytes, rig.config.mtu_bytes);
        ++packets;
      });
  rig.net.host(rig.a).send_message(rig.b, 4 * rig.config.mtu_bytes);
  rig.sim.run();
  EXPECT_EQ(packets, 4);
}

TEST(PortSwitchTest, DeliveryLatencyIncludesSerializationAndPropagation) {
  Rig rig;
  common::SimTime delivered_at = -1;
  rig.net.host(rig.b).set_message_handler(
      [&](NodeId, const MessageHeader&, std::uint64_t, std::uint32_t) {
        delivered_at = rig.sim.now();
      });
  rig.net.host(rig.a).send_message(rig.b, 1000);
  rig.sim.run();
  // Two hops: 2x serialization of ~1064B at 10 Gbps (~851 ns each) plus 2x
  // 1 us propagation.
  EXPECT_GT(delivered_at, 2 * common::kMicrosecond);
  EXPECT_LT(delivered_at, 6 * common::kMicrosecond);
}

TEST(PortSwitchTest, ThroughputBoundedByLineRate) {
  Rig rig;
  std::uint64_t received = 0;
  rig.net.host(rig.b).set_data_handler(
      [&](NodeId, std::uint32_t bytes, std::uint32_t) { received += bytes; });
  // 10 MB at 10 Gbps takes at least 8 ms.
  rig.net.host(rig.a).send_message(rig.b, 10'000'000);
  rig.sim.run_until(4 * common::kMillisecond);
  EXPECT_LT(received, 6'000'000u);
  rig.sim.run();
  EXPECT_EQ(received, 10'000'000u);
}

TEST(PortSwitchTest, TwoSendersShareEgressFairly) {
  // a and b both send to a third host c through the hub; c's downlink is
  // the bottleneck and both flows should make progress.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  config.dcqcn.enabled = false;  // raw sharing, no rate control
  config.pfc.enabled = false;
  config.ecn.enabled = false;
  Network net(lanes, config);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId c = net.add_host("c");
  const NodeId s = net.add_switch("s");
  for (NodeId h : {a, b, c}) net.connect(h, s, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();

  std::uint64_t from_a = 0, from_b = 0;
  net.host(c).set_data_handler([&](NodeId src, std::uint32_t bytes, std::uint32_t) {
    (src == a ? from_a : from_b) += bytes;
  });
  net.host(a).send_message(c, 2'000'000);
  net.host(b).send_message(c, 2'000'000);
  sim.run_until(2 * common::kMillisecond);
  EXPECT_GT(from_a, 400'000u);
  EXPECT_GT(from_b, 400'000u);
}

TEST(PortSwitchTest, QueueBytesTrackedAtEgress) {
  Rig rig;
  // Flood the b-ward egress: queue builds at the switch.
  rig.net.host(rig.a).send_message(rig.b, 1'000'000);
  rig.sim.run_until(100 * common::kMicrosecond);
  std::uint64_t max_queue = 0;
  for (std::size_t i = 0; i < rig.net.switch_at(rig.s).port_count(); ++i) {
    max_queue = std::max(max_queue, rig.net.switch_at(rig.s).port(i).max_queue_bytes());
  }
  // DCQCN throttling keeps it bounded but nonzero.
  EXPECT_GT(max_queue, 0u);
}

TEST(PortSwitchTest, PausedEgressBacklogGrowsRingAndDrainsInOrder) {
  // PFC pause pile-up shape: the host keeps pacing packets into a paused
  // port, so the ring buffer must grow well past its initial capacity and
  // then drain strictly in FIFO order on resume.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  config.dcqcn.enabled = false;
  config.pfc.enabled = false;
  config.ecn.enabled = false;
  Network net(lanes, config);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId s = net.add_switch("s");
  net.connect(a, s, Rate::gbps(10.0), common::kMicrosecond);
  net.connect(b, s, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();

  std::vector<std::uint64_t> arrival_order;
  net.host(b).set_message_handler(
      [&](NodeId, const MessageHeader& header, std::uint64_t, std::uint32_t) {
        arrival_order.push_back(header.word);
      });

  // The host uplink is kept shallow by the pacing loop; the deep backlog
  // forms at the switch egress toward b while that port is paused.
  Port& egress = net.switch_at(s).port(1);
  egress.pause();
  constexpr int kMessages = 40;  // 40 one-packet messages >> initial ring of 8
  std::vector<std::uint64_t> sent_order;
  for (int i = 0; i < kMessages; ++i) {
    sent_order.push_back(static_cast<std::uint64_t>(i));
    net.host(a).send_message(b, 1000, 0, 0, {.word = sent_order.back()});
  }
  sim.run_until(common::kMillisecond);
  EXPECT_EQ(egress.queue_packets(), static_cast<std::size_t>(kMessages));
  const std::uint64_t wire = 1000 + Packet::kHeaderBytes;
  EXPECT_EQ(egress.queue_bytes(), kMessages * wire);
  EXPECT_EQ(arrival_order.size(), 0u);

  egress.resume();
  sim.run();
  EXPECT_EQ(egress.queue_packets(), 0u);
  EXPECT_EQ(egress.queue_bytes(), 0u);
  EXPECT_EQ(arrival_order, sent_order);
}

TEST(PortSwitchTest, DropFilterLeavesQueueBytesAccountingExact) {
  // A filtered packet must never touch queue_bytes_ (it goes straight to
  // the drop counters), and surviving packets must account exactly.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  NetConfig config;
  config.dcqcn.enabled = false;
  config.pfc.enabled = false;
  config.ecn.enabled = false;
  Network net(lanes, config);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId s = net.add_switch("s");
  net.connect(a, s, Rate::gbps(10.0), common::kMicrosecond);
  net.connect(b, s, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();

  Port& egress = net.switch_at(s).port(1);  // switch egress toward b
  egress.pause();  // hold everything queued so the accounting is inspectable
  int seen = 0;
  egress.set_drop_filter([&seen](const Packet&) { return seen++ % 2 == 1; });

  constexpr int kMessages = 10;
  for (int i = 0; i < kMessages; ++i) net.host(a).send_message(b, 1000);
  sim.run_until(common::kMillisecond);

  const std::uint64_t wire = 1000 + Packet::kHeaderBytes;
  EXPECT_EQ(egress.dropped_packets(), 5u);
  EXPECT_EQ(egress.dropped_bytes(), 5 * wire);
  EXPECT_EQ(egress.queue_packets(), 5u);
  EXPECT_EQ(egress.queue_bytes(), 5 * wire);
  EXPECT_EQ(egress.max_queue_bytes(), 5 * wire);

  int delivered = 0;
  net.host(b).set_data_handler(
      [&](NodeId, std::uint32_t, std::uint32_t) { ++delivered; });
  egress.resume();
  sim.run();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(egress.queue_bytes(), 0u);
}

// Bare packet sink: records exactly what arrives off the wire.
class RecorderNode final : public Node {
 public:
  using Node::Node;
  void receive(Packet packet, std::int32_t) override {
    received.push_back(packet);
  }
  std::vector<Packet> received;
};

TEST(PortSwitchTest, IngressPortScrubbedWhenPacketLeavesEachSwitch) {
  // ingress_port is switch-buffer-local state: after a multi-hop path
  // (switch -> switch -> sink) the delivered packet must carry -1, and the
  // per-ingress PFC accounting on both switches must return to zero —
  // which only happens if each switch reads the field before scrubbing it.
  sim::Simulator sim;
  NetConfig config;
  config.pfc.enabled = false;
  Switch s1(sim, 1, "s1", config);
  Switch s2(sim, 2, "s2", config);
  RecorderNode sink(sim, 3, "sink");

  Port& s1_up = s1.add_port();    // ingress-only (no peer attached)
  Port& s1_down = s1.add_port();  // toward s2
  Port& s2_up = s2.add_port();    // from s1
  Port& s2_down = s2.add_port();  // toward sink
  Port& sink_up = sink.add_port();
  (void)s1_up;
  s1_down.attach(&s2, 0, Rate::gbps(10.0), common::kMicrosecond);
  s2_up.attach(&s1, 1, Rate::gbps(10.0), common::kMicrosecond);
  s2_down.attach(&sink, 0, Rate::gbps(10.0), common::kMicrosecond);
  sink_up.attach(&s2, 1, Rate::gbps(10.0), common::kMicrosecond);
  s1.finalize_ports(4);
  s2.finalize_ports(4);
  s1.set_route(3, 1);
  s2.set_route(3, 1);

  Packet packet;
  packet.kind = PacketKind::kData;
  packet.dst = 3;
  packet.flow_id = id_base(0) + 7;
  packet.bytes = 1000;
  // Hold s1's egress so the packet dwells in its buffer: ingress bytes must
  // stay accounted for exactly as long as the packet sits there.
  s1_down.pause();
  s1.receive(packet, 0);
  EXPECT_EQ(s1.ingress_buffered_bytes(0), packet.wire_bytes());
  s1_down.resume();
  sim.run();

  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].ingress_port, -1);
  EXPECT_EQ(sink.received[0].bytes, 1000u);
  EXPECT_EQ(s1.ingress_buffered_bytes(0), 0u);
  EXPECT_EQ(s2.ingress_buffered_bytes(0), 0u);
}

TEST(PortSwitchTest, UnroutablePacketThrows) {
  sim::LaneGroup lanes{1, 1};
  Network net(lanes, NetConfig{});
  const NodeId a = net.add_host("a");
  const NodeId s = net.add_switch("s");
  net.connect(a, s, Rate::gbps(10.0), common::kMicrosecond);
  net.finalize();

  Packet stray;
  stray.kind = PacketKind::kData;
  stray.flow_id = id_base(a) + 1;
  stray.dst = 777;  // no such node
  stray.bytes = 100;
  EXPECT_THROW(net.switch_at(s).receive(stray, 0), std::runtime_error);
}

}  // namespace
}  // namespace src::net

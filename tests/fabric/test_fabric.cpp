#include "fabric/initiator.hpp"
#include "fabric/target.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "workload/micro.hpp"

namespace src::fabric {
namespace {

using common::IoType;
using common::Rate;

struct Rig {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::NetConfig net_config;
  net::Network network{lanes, net_config};
  net::StarTopology topo;
  std::unique_ptr<Initiator> initiator;
  std::unique_ptr<Target> target;

  explicit Rig(TargetConfig target_config = {}) {
    topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
    initiator = std::make_unique<Initiator>(network, topo.hosts[0]);
    target = std::make_unique<Target>(network, topo.hosts[1], std::move(target_config));
  }
};

TEST(FabricTest, ReadRoundTrip) {
  Rig rig;
  rig.initiator->issue(IoType::kRead, 0, 65536, rig.target->node_id());
  rig.sim.run();
  EXPECT_EQ(rig.initiator->stats().reads_completed, 1u);
  EXPECT_EQ(rig.initiator->stats().read_bytes_received, 65536u);
  EXPECT_EQ(rig.target->stats().reads_served, 1u);
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(FabricTest, WriteRoundTrip) {
  Rig rig;
  rig.initiator->issue(IoType::kWrite, 1 << 20, 32768, rig.target->node_id());
  rig.sim.run();
  EXPECT_EQ(rig.initiator->stats().writes_completed, 1u);
  EXPECT_EQ(rig.target->stats().writes_served, 1u);
  EXPECT_EQ(rig.target->stats().write_bytes, 32768u);
}

TEST(FabricTest, ReadLatencyIncludesStorageAndNetwork) {
  Rig rig;
  rig.initiator->issue(IoType::kRead, 0, 16384, rig.target->node_id());
  rig.sim.run();
  // At least the SSD read latency (75 us for SSD-A) plus network hops.
  EXPECT_GT(rig.initiator->stats().read_latency.mean_us(), 75.0);
}

TEST(FabricTest, TraceReplayCompletes) {
  Rig rig;
  workload::Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.push_back({common::microseconds(20.0 * i),
                     static_cast<std::uint64_t>(i) << 20, 16384,
                     i % 3 == 0 ? IoType::kWrite : IoType::kRead});
  }
  rig.initiator->run_trace(trace, [&](const workload::TraceRecord&, std::size_t) {
    return rig.target->node_id();
  });
  rig.sim.run();
  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_issued +
                rig.initiator->stats().writes_issued,
            50u);
}

TEST(FabricTest, ReadTimelineRecordsArrivals) {
  Rig rig;
  rig.initiator->issue(IoType::kRead, 0, 300'000, rig.target->node_id());
  rig.sim.run();
  EXPECT_EQ(rig.initiator->read_timeline().total_bytes(), 300'000u);
}

TEST(FabricTest, SubmitListenerSeesRequests) {
  Rig rig;
  std::vector<nvme::IoRequest> seen;
  rig.target->set_submit_listener(
      [&](const nvme::IoRequest& request) { seen.push_back(request); });
  rig.initiator->issue(IoType::kRead, 4096, 8192, rig.target->node_id());
  rig.sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].lba, 4096u);
  EXPECT_EQ(seen[0].bytes, 8192u);
  EXPECT_EQ(seen[0].type, IoType::kRead);
}

TEST(FabricTest, WriteCompleteListenerFires) {
  Rig rig;
  std::uint64_t write_bytes = 0;
  rig.target->set_write_complete_listener(
      [&](common::SimTime, std::uint32_t bytes) { write_bytes += bytes; });
  rig.initiator->issue(IoType::kWrite, 0, 12288, rig.target->node_id());
  rig.sim.run();
  EXPECT_EQ(write_bytes, 12288u);
}

TEST(FabricTest, SsqModeExposesDriverAndWeights) {
  TargetConfig config;
  config.driver_mode = DriverMode::kSsq;
  Rig rig(config);
  ASSERT_NE(rig.target->ssq_driver(0), nullptr);
  rig.target->set_weight_ratio(5);
  EXPECT_EQ(rig.target->ssq_driver(0)->write_weight(), 5u);
}

TEST(FabricTest, FifoModeHasNoSsqDriver) {
  Rig rig;  // default FIFO
  EXPECT_EQ(rig.target->ssq_driver(0), nullptr);
  rig.target->set_weight_ratio(5);  // must be a harmless no-op
}

TEST(FabricTest, MultiDeviceStripesRequests) {
  TargetConfig config;
  config.device_count = 4;
  Rig rig(config);
  for (int i = 0; i < 64; ++i) {
    rig.initiator->issue(IoType::kRead, static_cast<std::uint64_t>(i) << 20,
                         16384, rig.target->node_id());
  }
  rig.sim.run();
  int devices_used = 0;
  for (std::size_t d = 0; d < rig.target->device_count(); ++d) {
    if (rig.target->device(d).stats().reads_completed > 0) ++devices_used;
  }
  EXPECT_GT(devices_used, 1);
  EXPECT_EQ(rig.initiator->stats().reads_completed, 64u);
}

TEST(FabricTest, CongestionListenerSeesRateCuts) {
  // Two targets in-cast into one initiator to force DCQCN activity.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  auto topo = net::make_star(network, 3, Rate::gbps(2.0), common::kMicrosecond);
  Initiator initiator(network, topo.hosts[0]);
  TargetConfig config;
  Target t1(network, topo.hosts[1], config);
  Target t2(network, topo.hosts[2], config);

  int cuts = 0;
  t1.set_congestion_listener([&](Rate, bool decrease) { cuts += decrease; });
  t2.set_congestion_listener([&](Rate, bool decrease) { cuts += decrease; });

  for (int i = 0; i < 400; ++i) {
    initiator.issue(IoType::kRead, static_cast<std::uint64_t>(i) << 20, 65536,
                    i % 2 ? t1.node_id() : t2.node_id());
  }
  sim.run_until(50 * common::kMillisecond);
  EXPECT_GT(cuts, 0);
  EXPECT_GT(t1.stats().congestion_signals + t2.stats().congestion_signals, 0u);
}

}  // namespace
}  // namespace src::fabric

namespace src::fabric {
namespace {

using common::IoType;
using common::Rate;

TEST(FabricTest, MaxOutstandingBoundsInflight) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  auto topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
  Initiator initiator(network, topo.hosts[0]);
  Target target(network, topo.hosts[1], TargetConfig{});
  initiator.set_max_outstanding(4);

  workload::Trace trace;
  for (int i = 0; i < 60; ++i) {
    trace.push_back({0, static_cast<std::uint64_t>(i) << 20, 16384, IoType::kRead});
  }
  initiator.run_trace(trace, [&](const workload::TraceRecord&, std::size_t) {
    return target.node_id();
  });
  sim.run_until(common::kMillisecond / 10);
  EXPECT_LE(initiator.outstanding(), 4u);
  sim.run();
  EXPECT_TRUE(initiator.all_complete());
  EXPECT_EQ(initiator.stats().reads_completed, 60u);
}

TEST(FabricTest, LatencyPercentilesRecorded) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  auto topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
  Initiator initiator(network, topo.hosts[0]);
  Target target(network, topo.hosts[1], TargetConfig{});
  for (int i = 0; i < 30; ++i) {
    initiator.issue(i % 2 ? IoType::kWrite : IoType::kRead,
                    static_cast<std::uint64_t>(i) << 20, 16384, target.node_id());
  }
  sim.run();
  EXPECT_EQ(initiator.stats().read_latency.count(), 15u);
  EXPECT_EQ(initiator.stats().write_latency.count(), 15u);
  EXPECT_GT(initiator.stats().read_latency.p50_us(), 75.0);  // >= flash read
}

TEST(InitiatorTest, ResponseForNoLiveRequestOnlyCountsAsStale) {
  Rig rig;
  const std::uint32_t key =
      rig.initiator->issue(IoType::kWrite, 0, 4096, rig.target->node_id());
  rig.sim.run();
  ASSERT_EQ(rig.initiator->stats().writes_completed, 1u);

  // A second ack for the completed request, and one for a key never issued.
  net::Host& target_host = rig.network.host(rig.target->node_id());
  target_host.send_message(rig.initiator->node_id(), kCapsuleBytes, kWriteAck,
                           /*channel=*/1, {.key = key});
  target_host.send_message(rig.initiator->node_id(), kCapsuleBytes, kWriteAck,
                           /*channel=*/1, {.key = key + 100});
  rig.sim.run();
  EXPECT_EQ(rig.initiator->stats().stale_messages, 2u);
  EXPECT_EQ(rig.initiator->stats().writes_completed, 1u);
  EXPECT_EQ(rig.initiator->stats().writes_failed, 0u);
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
  EXPECT_TRUE(rig.initiator->all_complete());
}

TEST(InitiatorTest, TargetAnswersARequestTheInitiatorGaveUpOn) {
  // The request times out with no retry budget long before the flash read
  // finishes. The target still serves it; the answer is a dead letter.
  Rig rig;
  RetryPolicy policy;
  policy.enabled = true;
  policy.base_timeout = common::kMicrosecond;
  policy.max_retries = 0;
  rig.initiator->set_retry_policy(policy);
  rig.initiator->issue(IoType::kRead, 0, 16384, rig.target->node_id());
  rig.sim.run();
  EXPECT_EQ(rig.initiator->stats().reads_failed, 1u);
  EXPECT_EQ(rig.initiator->stats().reads_completed, 0u);
  EXPECT_EQ(rig.target->stats().reads_served, 1u);
  EXPECT_EQ(rig.initiator->stats().stale_messages, 1u);
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(InitiatorTest, StragglerServedAfterRetryCompletesItsRequestOnce) {
  // The first timeout fires while the original capsule is being served, so
  // the target serves the request twice. The first response completes it;
  // the second is a dead letter. The backoff keeps the second timeout far
  // beyond both responses.
  Rig rig;
  RetryPolicy policy;
  policy.enabled = true;
  policy.base_timeout = 30 * common::kMicrosecond;
  policy.backoff_factor = 1000.0;
  policy.max_timeout = 100 * common::kMillisecond;
  rig.initiator->set_retry_policy(policy);
  rig.initiator->issue(IoType::kRead, 0, 65536, rig.target->node_id());
  rig.sim.run();

  const InitiatorStats& st = rig.initiator->stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.timeouts, 1u);
  EXPECT_EQ(rig.target->stats().reads_served, 2u);
  EXPECT_EQ(st.reads_completed, 1u);
  EXPECT_EQ(st.stale_messages, 1u);
  EXPECT_EQ(st.read_latency.count(), 1u);
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(FabricTest, ClosedLoopLimitsQueueGrowthVsOpenLoop) {
  // Under SSD overload, a closed-loop initiator keeps latency bounded by
  // its window while the open-loop one lets it grow with the backlog.
  auto p99 = [](std::size_t window) {
    sim::LaneGroup lanes{1, 1};
    sim::Simulator& sim = lanes.kernel(0);
    net::Network network(lanes, net::NetConfig{});
    auto topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
    Initiator initiator(network, topo.hosts[0]);
    Target target(network, topo.hosts[1], TargetConfig{});
    initiator.set_max_outstanding(window);
    const auto trace = workload::generate_micro(
        workload::symmetric_micro(5.0, 32.0 * 1024, 1500), 3);
    initiator.run_trace(trace, [&](const workload::TraceRecord&, std::size_t) {
      return target.node_id();
    });
    sim.run_until(2 * common::kSecond);
    return initiator.stats().read_latency.p99_us();
  };
  EXPECT_LT(p99(8), p99(0) / 3.0);
}

}  // namespace
}  // namespace src::fabric

// Failure-injection tests: the system must stay functional and recover when
// links brown out or devices degrade mid-run.
#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "net/topology.hpp"
#include "nvme/fifo_driver.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "workload/micro.hpp"

namespace src {
namespace {

using common::IoType;
using common::Rate;

TEST(FailureInjectionTest, LinkBrownoutThrottlesAndRecovers) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::NetConfig config;
  config.dcqcn.enabled = false;  // isolate the physical effect
  net::Network net(lanes, config);
  const auto topo = net::make_star(net, 2, Rate::gbps(10.0), common::kMicrosecond);

  common::ThroughputTimeline received{common::kMillisecond};
  net.host(topo.hosts[1]).set_data_handler(
      [&](net::NodeId, std::uint32_t bytes, std::uint32_t) {
        received.record(sim.now(), bytes);
      });
  net.host(topo.hosts[0]).send_message(topo.hosts[1], 30'000'000);

  // Brownout: at 5 ms the sender's uplink drops to 1 Gbps; at 15 ms it
  // recovers. (Both the host uplink and the hub's matching egress degrade,
  // as with a renegotiated link speed.)
  sim.schedule_at(5 * common::kMillisecond, [&] {
    net.host(topo.hosts[0]).port(0).set_rate(Rate::gbps(1.0));
  });
  sim.schedule_at(15 * common::kMillisecond, [&] {
    net.host(topo.hosts[0]).port(0).set_rate(Rate::gbps(10.0));
  });
  sim.run();

  // Healthy-phase bins run near 10 Gbps; brownout bins near 1 Gbps.
  const double healthy = received.bin_rate(2).as_gbps();
  const double degraded = received.bin_rate(10).as_gbps();
  const double recovered = received.bin_rate(17).as_gbps();
  EXPECT_GT(healthy, 5.0);
  EXPECT_LT(degraded, 2.0);
  EXPECT_GT(recovered, 5.0);
  // Losslessness: everything still arrives.
  EXPECT_EQ(net.host(topo.hosts[1]).stats().bytes_received, 30'000'000u);
}

TEST(FailureInjectionTest, DeviceSlowdownShowsInLatency) {
  sim::Simulator sim;
  ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
  nvme::FifoDriver driver(sim, device);
  std::vector<double> latencies_us;
  driver.set_completion_handler(
      [&](const nvme::IoRequest& request, const ssd::NvmeCompletion& completion) {
        latencies_us.push_back(
            common::to_microseconds(completion.complete_time - request.arrival));
      });

  auto submit_read = [&](std::uint64_t lba) {
    nvme::IoRequest request;
    request.type = IoType::kRead;
    request.lba = lba;
    request.bytes = 16384;
    request.arrival = sim.now();
    driver.submit(request);
  };

  submit_read(0);
  sim.run();
  const double healthy = latencies_us.back();

  device.inject_latency_scale(4.0);
  submit_read(1 << 20);
  sim.run();
  const double degraded = latencies_us.back();

  device.inject_latency_scale(1.0);
  submit_read(2 << 20);
  sim.run();
  const double recovered = latencies_us.back();

  EXPECT_GT(degraded, 2.0 * healthy);
  EXPECT_LT(recovered, 1.5 * healthy);
}

TEST(FailureInjectionTest, FabricSurvivesTargetDeviceDegradation) {
  // A full NVMe-oF rig where one target's SSD degrades 4x mid-run: every
  // request must still complete, and the degraded target must not wedge
  // the other one.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  const auto topo = net::make_star(network, 3, Rate::gbps(10.0), common::kMicrosecond);
  fabric::Initiator initiator(network, topo.hosts[0]);
  fabric::TargetConfig target_config;
  fabric::Target healthy(network, topo.hosts[1], target_config);
  fabric::Target degrading(network, topo.hosts[2], target_config);

  workload::MicroParams params = workload::symmetric_micro(40.0, 16.0 * 1024, 600);
  const auto trace = workload::generate_micro(params, 3);
  initiator.run_trace(trace, [&](const workload::TraceRecord&, std::size_t i) {
    return i % 2 ? healthy.node_id() : degrading.node_id();
  });
  sim.schedule_at(5 * common::kMillisecond,
                  [&] { degrading.device(0).inject_latency_scale(4.0); });
  sim.run_until(2 * common::kSecond);

  EXPECT_TRUE(initiator.all_complete());
  EXPECT_GT(healthy.stats().reads_served, 0u);
  EXPECT_GT(degrading.stats().reads_served, 0u);
}

TEST(FailureInjectionTest, SrcControlLoopSurvivesDeviceDegradation) {
  // The TPM was trained on the healthy device; after degradation its
  // predictions are biased, but Algorithm 1 must keep producing valid
  // weights and the experiment must complete.
  const core::Tpm tpm = core::train_default_tpm(ssd::ssd_a(), 21);

  auto config = scenario::build(scenario::vdi_spec(true), {.tpm = &tpm}).config;
  config.max_time = 80 * common::kMillisecond;
  const auto result = core::run_experiment(config);
  EXPECT_FALSE(result.adjustments.empty());
  for (const auto& adjustment : result.adjustments) {
    EXPECT_GE(adjustment.weight_ratio, 1u);
    EXPECT_LE(adjustment.weight_ratio, 64u);
  }
}

}  // namespace
}  // namespace src

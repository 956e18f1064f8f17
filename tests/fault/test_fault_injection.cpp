#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/presets.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "net/topology.hpp"
#include "workload/micro.hpp"

namespace src::fault {
namespace {

using common::IoType;
using common::Rate;
using common::kMillisecond;

fabric::RetryPolicy fast_retry(std::uint32_t max_retries = 10) {
  fabric::RetryPolicy policy;
  policy.enabled = true;
  policy.base_timeout = 2 * kMillisecond;
  policy.backoff_factor = 2.0;
  policy.max_timeout = 16 * kMillisecond;
  policy.max_retries = max_retries;
  return policy;
}

struct Rig {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network{lanes, net::NetConfig{}};
  net::StarTopology topo;
  std::unique_ptr<fabric::Initiator> initiator;
  std::unique_ptr<fabric::Target> target;

  explicit Rig(fabric::TargetConfig target_config = {}) {
    topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
    initiator = std::make_unique<fabric::Initiator>(network, topo.hosts[0]);
    target = std::make_unique<fabric::Target>(network, topo.hosts[1],
                                              std::move(target_config));
  }
};

TEST(FaultInjectionTest, TimeoutRetryRecoversFromDropWindow) {
  Rig rig;
  rig.initiator->set_retry_policy(fast_retry());

  FaultPlan plan;
  plan.packet_drops.push_back(
      {rig.topo.hosts[0], 0, 0, 10 * kMillisecond, 1.0});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  for (int i = 0; i < 10; ++i) {
    rig.initiator->issue(IoType::kRead, static_cast<std::uint64_t>(i) << 20,
                         16384, rig.target->node_id());
  }
  rig.sim.run_until(common::kSecond);

  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_completed, 10u);
  EXPECT_GT(rig.initiator->stats().timeouts, 0u);
  EXPECT_GT(rig.initiator->stats().retries, 0u);
  EXPECT_GT(injector.stats().packets_dropped, 0u);
  // No bookkeeping leaks once everything reached a terminal state.
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(FaultInjectionTest, BudgetExhaustionFailsExplicitly) {
  Rig rig;
  rig.initiator->set_retry_policy(fast_retry(/*max_retries=*/2));

  FaultPlan plan;  // the link never heals
  plan.packet_drops.push_back(
      {rig.topo.hosts[0], 0, 0, 10 * common::kSecond, 1.0});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  for (int i = 0; i < 5; ++i) {
    rig.initiator->issue(IoType::kRead, static_cast<std::uint64_t>(i) << 20,
                         16384, rig.target->node_id());
  }
  rig.sim.run_until(common::kSecond);

  // Every request terminated — as an explicit failure, not a hang.
  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_completed, 0u);
  EXPECT_EQ(rig.initiator->stats().reads_failed, 5u);
  EXPECT_EQ(rig.initiator->stats().retries, 10u);  // 2 per request
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(FaultInjectionTest, LinkDownCoversBothDirections) {
  Rig rig;
  rig.initiator->set_retry_policy(fast_retry());

  // Down the target's access link: the expansion must also kill the hub's
  // reverse port, so nothing sneaks through in either direction.
  FaultPlan plan;
  plan.link_downs.push_back({rig.topo.hosts[1], 0, 0, 10 * kMillisecond});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  for (int i = 0; i < 5; ++i) {
    rig.initiator->issue(IoType::kRead, static_cast<std::uint64_t>(i) << 20,
                         16384, rig.target->node_id());
  }
  rig.sim.run_until(common::kSecond);

  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_completed, 5u);
  EXPECT_GT(rig.initiator->stats().retries, 0u);
  EXPECT_GT(injector.stats().packets_dropped, 0u);
}

TEST(FaultInjectionTest, OfflineDeviceIsReroutedAround) {
  fabric::TargetConfig config;
  config.device_count = 4;
  Rig rig(config);

  FaultPlan plan;  // device 1 is down for the whole run
  plan.outages.push_back({0, 1, 0, common::kSecond});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  for (int i = 0; i < 40; ++i) {
    rig.initiator->issue(IoType::kRead, static_cast<std::uint64_t>(i) << 20,
                         16384, rig.target->node_id());
  }
  rig.sim.run_until(common::kSecond / 2);

  // No retry policy needed: striping routes around the dead device.
  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_completed, 40u);
  EXPECT_GT(rig.target->stats().rerouted_requests, 0u);
  EXPECT_EQ(rig.target->device(1).stats().reads_completed, 0u);
  EXPECT_EQ(rig.target->online_device_count(), 3u);
}

TEST(FaultInjectionTest, WholeArrayOfflineFailsExplicitlyWithoutRetry) {
  Rig rig;  // single device, retry disabled

  FaultPlan plan;
  plan.outages.push_back({0, 0, 0, common::kSecond});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  rig.initiator->issue(IoType::kRead, 0, 16384, rig.target->node_id());
  rig.sim.run_until(common::kSecond / 2);

  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_failed, 1u);
  EXPECT_EQ(rig.initiator->stats().error_completions, 1u);
  EXPECT_EQ(rig.target->stats().errors_returned, 1u);
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(FaultInjectionTest, WholeArrayOutageRecoversOnceTheWindowCloses) {
  // Every device of the target goes dark over the same window. Re-striping
  // has nowhere to route, so requests issued inside the window bounce with
  // explicit error completions — and the retry machinery must carry all of
  // them across the blackout instead of losing a single one.
  fabric::TargetConfig config;
  config.device_count = 4;
  Rig rig(config);
  rig.initiator->set_retry_policy(fast_retry());

  FaultPlan plan;
  for (std::size_t dev = 0; dev < 4; ++dev) {
    plan.outages.push_back({0, dev, 10 * kMillisecond, 30 * kMillisecond});
  }
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  // One read per millisecond straddles before / during / after the window.
  workload::Trace trace;
  for (int i = 0; i < 40; ++i) {
    trace.push_back({static_cast<common::SimTime>(i) * kMillisecond,
                     static_cast<std::uint64_t>(i) << 20, 16384, IoType::kRead});
  }
  rig.initiator->run_trace(trace, [&](const workload::TraceRecord&,
                                      std::size_t) {
    return rig.target->node_id();
  });

  rig.sim.run_until(20 * kMillisecond);
  EXPECT_EQ(rig.target->online_device_count(), 0u);
  rig.sim.run_until(common::kSecond);

  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_completed, 40u);
  EXPECT_EQ(rig.initiator->stats().reads_failed, 0u);
  EXPECT_GT(rig.initiator->stats().error_completions, 0u);
  EXPECT_GT(rig.target->stats().errors_returned, 0u);
  EXPECT_EQ(rig.target->online_device_count(), 4u);
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(FaultInjectionTest, OutageOverlappingReStripedInFlightWork) {
  // Device 1 is down from the start, so a burst re-stripes across devices
  // 0/2/3 — then device 2 drops out mid-burst, while re-striped requests
  // are still queued on it. The rejected work must surface as explicit
  // error completions and retry to the survivors, never hang.
  fabric::TargetConfig config;
  config.device_count = 4;
  Rig rig(config);
  rig.initiator->set_retry_policy(fast_retry());

  FaultPlan plan;
  plan.outages.push_back({0, 1, 0, 60 * kMillisecond});
  plan.outages.push_back({0, 2, 6 * kMillisecond, 60 * kMillisecond});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  // The whole burst lands at 5 ms, one millisecond before device 2 dies:
  // far more work than a device drains in a millisecond, so its queue is
  // guaranteed non-empty when the outage hits.
  workload::Trace trace;
  for (int i = 0; i < 60; ++i) {
    trace.push_back({5 * kMillisecond, static_cast<std::uint64_t>(i) << 20, 65536,
                     IoType::kRead});
  }
  rig.initiator->run_trace(trace, [&](const workload::TraceRecord&,
                                      std::size_t) {
    return rig.target->node_id();
  });
  rig.sim.run_until(common::kSecond);

  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_completed, 60u);
  EXPECT_EQ(rig.initiator->stats().reads_failed, 0u);
  EXPECT_GT(rig.target->stats().rerouted_requests, 0u);
  EXPECT_GT(rig.initiator->stats().error_completions, 0u);
  EXPECT_EQ(rig.target->device(1).stats().reads_completed, 0u);
  EXPECT_EQ(rig.initiator->outstanding(), 0u);
}

TEST(FaultInjectionTest, TransientErrorsAreRetriedUntilTheWindowCloses) {
  Rig rig;
  fabric::RetryPolicy policy = fast_retry();
  policy.base_timeout = kMillisecond;
  rig.initiator->set_retry_policy(policy);

  FaultPlan plan;  // every command fails for the first 5 ms
  plan.transient_errors.push_back({0, 0, 0, 5 * kMillisecond, 1.0});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  rig.initiator->issue(IoType::kRead, 0, 16384, rig.target->node_id());
  rig.sim.run_until(common::kSecond);

  EXPECT_TRUE(rig.initiator->all_complete());
  EXPECT_EQ(rig.initiator->stats().reads_completed, 1u);
  EXPECT_GT(rig.initiator->stats().error_completions, 0u);
  EXPECT_GT(rig.target->device(0).stats().transient_failures, 0u);
}

TEST(FaultInjectionTest, LatencySpikeRestoresAfterWindow) {
  Rig rig;

  FaultPlan plan;
  plan.latency_spikes.push_back({0, 0, 0, 5 * kMillisecond, 8.0});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);
  injector.arm();

  rig.sim.run_until(kMillisecond);
  EXPECT_DOUBLE_EQ(rig.target->device(0).injected_latency_scale(), 8.0);
  rig.sim.run_until(10 * kMillisecond);
  EXPECT_DOUBLE_EQ(rig.target->device(0).injected_latency_scale(), 1.0);
}

TEST(FaultInjectionTest, ArmRejectsUnregisteredTargets) {
  Rig rig;
  FaultPlan plan;
  plan.outages.push_back({3, 0, 0, kMillisecond});
  FaultInjector injector(rig.network, plan);
  injector.add_target(*rig.target);  // index 0 only; the plan wants 3
  EXPECT_THROW(injector.arm(), std::out_of_range);
}

// --- The acceptance scenario: a 50 ms drop window plus an SSD
// offline/online cycle (and a transient-error window) mid-run. Every
// request must reach a terminal state, and two runs with the same seed
// must be bit-identical in every counter.

struct ScenarioOutcome {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t error_completions = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rerouted = 0;
  common::SimTime end_time = 0;
  bool all_complete = false;
  std::size_t outstanding = 0;

  bool operator==(const ScenarioOutcome&) const = default;
};

ScenarioOutcome run_scenario(std::uint64_t seed) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  auto topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
  fabric::Initiator initiator(network, topo.hosts[0]);
  fabric::TargetConfig target_config;
  target_config.device_count = 4;
  fabric::Target target(network, topo.hosts[1], target_config);
  initiator.set_retry_policy(fast_retry(/*max_retries=*/10));

  FaultPlan plan;
  plan.seed = seed;
  plan.packet_drops.push_back(
      {topo.hosts[0], 0, 20 * kMillisecond, 70 * kMillisecond, 0.3});
  plan.outages.push_back({0, 1, 30 * kMillisecond, 60 * kMillisecond});
  plan.transient_errors.push_back({0, 2, 10 * kMillisecond, 40 * kMillisecond, 0.2});
  FaultInjector injector(network, plan);
  injector.add_target(target);
  injector.arm();

  workload::Trace trace;
  for (int i = 0; i < 200; ++i) {
    trace.push_back({common::microseconds(500.0 * i),
                     static_cast<std::uint64_t>(i) << 20, 32768,
                     i % 3 == 0 ? IoType::kWrite : IoType::kRead});
  }
  initiator.run_trace(trace, [&](const workload::TraceRecord&, std::size_t) {
    return target.node_id();
  });
  sim.run_until(2 * common::kSecond);

  ScenarioOutcome out;
  out.completed =
      initiator.stats().reads_completed + initiator.stats().writes_completed;
  out.failed = initiator.stats().requests_failed();
  out.retries = initiator.stats().retries;
  out.timeouts = initiator.stats().timeouts;
  out.error_completions = initiator.stats().error_completions;
  out.read_bytes = initiator.stats().read_bytes_received;
  out.dropped = injector.stats().packets_dropped;
  out.rerouted = target.stats().rerouted_requests;
  out.end_time = sim.now();
  out.all_complete = initiator.all_complete();
  out.outstanding = initiator.outstanding();
  return out;
}

TEST(FaultInjectionTest, AcceptanceScenarioTerminatesAndIsDeterministic) {
  const ScenarioOutcome first = run_scenario(42);

  // Every one of the 200 requests completed or failed explicitly — no hangs
  // (all_complete implies nothing is still in flight at the 2 s horizon).
  EXPECT_TRUE(first.all_complete);
  EXPECT_EQ(first.completed + first.failed, 200u);
  EXPECT_GT(first.dropped, 0u);
  EXPECT_GT(first.retries, 0u);
  EXPECT_EQ(first.outstanding, 0u);

  // Identical seed => identical retry counts, throughput, end time.
  const ScenarioOutcome second = run_scenario(42);
  EXPECT_TRUE(first == second);

  // A different fault seed draws a different drop pattern.
  const ScenarioOutcome other = run_scenario(1337);
  EXPECT_TRUE(other.all_complete);
  EXPECT_FALSE(first == other);
}

// --- Zero overhead when off: arming an injector with an empty plan (or
// none at all) must leave a fault-free run bit-identical.

struct CleanOutcome {
  std::uint64_t completed = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t retries = 0;
  common::SimTime end_time = 0;

  bool operator==(const CleanOutcome&) const = default;
};

CleanOutcome run_clean(bool with_empty_injector) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  auto topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
  fabric::Initiator initiator(network, topo.hosts[0]);
  fabric::Target target(network, topo.hosts[1], fabric::TargetConfig{});

  std::unique_ptr<FaultInjector> injector;
  if (with_empty_injector) {
    injector = std::make_unique<FaultInjector>(network, FaultPlan{});
    injector->add_target(target);
    injector->arm();
  }

  for (int i = 0; i < 50; ++i) {
    initiator.issue(i % 2 ? IoType::kWrite : IoType::kRead,
                    static_cast<std::uint64_t>(i) << 20, 16384,
                    target.node_id());
  }
  sim.run();

  CleanOutcome out;
  out.completed =
      initiator.stats().reads_completed + initiator.stats().writes_completed;
  out.read_bytes = initiator.stats().read_bytes_received;
  out.retries = initiator.stats().retries;
  out.end_time = sim.now();
  return out;
}

TEST(FaultInjectionTest, EmptyPlanIsZeroOverhead) {
  const CleanOutcome without = run_clean(false);
  const CleanOutcome with = run_clean(true);
  EXPECT_TRUE(without == with);
  EXPECT_EQ(with.retries, 0u);
  EXPECT_EQ(with.completed, 50u);
}

// --- Control-plane faults.

TEST(FaultInjectionTest, SignalLossSuppressesCongestionCallbacks) {
  // Two targets incast into one initiator to force DCQCN rate cuts, with
  // the control plane of target 0 severed for the whole run.
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  auto topo = net::make_star(network, 3, Rate::gbps(2.0), common::kMicrosecond);
  fabric::Initiator initiator(network, topo.hosts[0]);
  fabric::Target t0(network, topo.hosts[1], fabric::TargetConfig{});
  fabric::Target t1(network, topo.hosts[2], fabric::TargetConfig{});

  int cuts_t0 = 0;
  int cuts_t1 = 0;
  t0.set_congestion_listener([&](Rate, bool decrease) { cuts_t0 += decrease; });
  t1.set_congestion_listener([&](Rate, bool decrease) { cuts_t1 += decrease; });

  FaultPlan plan;
  plan.signal_losses.push_back({0, 0, common::kSecond});
  FaultInjector injector(network, plan);
  injector.add_target(t0);
  injector.add_target(t1);
  injector.arm();

  for (int i = 0; i < 400; ++i) {
    initiator.issue(IoType::kRead, static_cast<std::uint64_t>(i) << 20, 65536,
                    i % 2 ? t0.node_id() : t1.node_id());
  }
  sim.run_until(50 * kMillisecond);

  EXPECT_EQ(cuts_t0, 0);
  EXPECT_GT(t0.stats().signals_suppressed, 0u);
  // The signal-loss fault must not mute the raw congestion telemetry.
  EXPECT_GT(t0.stats().congestion_signals, 0u);
  EXPECT_GT(cuts_t1, 0);
}

TEST(FaultInjectionTest, TpmFaultIsCaughtByControllerGuardrails) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  const auto topo =
      net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);

  // Minimal fitted TPM so predictions are real before corruption.
  core::Tpm tpm;
  core::TrainingGrid grid;
  grid.traces.push_back(workload::generate_micro(
      workload::symmetric_micro(20.0, 44.0 * 1024, 400), 3));
  grid.weight_ratios = {1, 2, 3};
  tpm.fit(core::collect_training_data(ssd::ssd_a(), grid));
  core::WorkloadMonitor monitor{10 * kMillisecond};
  core::SrcController controller(tpm, monitor);
  const workload::WorkloadFeatures ch = workload::extract_features(
      workload::generate_micro(workload::symmetric_micro(20.0, 44.0 * 1024, 400), 9));

  FaultPlan plan;
  plan.tpm_faults.push_back({0, 0, 10 * kMillisecond, TpmFaultKind::kNan});
  FaultInjector injector(network, plan);
  injector.add_controller(controller, topo.hosts[1]);
  injector.arm();

  // Inside the fault window (t=0): predictions are NaN, the guardrail keeps
  // the last-known-good weight ratio.
  const double demanded = tpm.predict(ch, 1.0).read_bytes_per_sec * 0.3;
  EXPECT_EQ(controller.predict_weight_ratio(demanded, ch), 1u);
  EXPECT_GT(controller.stats().rejected_predictions, 0u);
  EXPECT_GT(injector.stats().tpm_corruptions, 0u);

  // Past the window the same demand drives a real search.
  sim.run_until(20 * kMillisecond);
  EXPECT_GT(controller.predict_weight_ratio(demanded, ch), 1u);
}

}  // namespace
}  // namespace src::fault

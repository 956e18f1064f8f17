// Fault-resilience scenario: one initiator against a 4-device flash array
// while the fault injector disturbs the run — a 50 ms window of 30% packet
// loss on the initiator's access link, one SSD offline/online cycle, and a
// transient-error window on a second device.
//
// Three configurations:
//  * healthy            — no faults, retry machinery off (the baseline all
//                         other benches measure);
//  * faults, no retry   — requests caught by the drop window are lost and
//                         only device errors fail explicitly, so the run
//                         cannot finish: this is the failure mode the
//                         timeout/retry path exists to fix;
//  * faults + retry     — capped-exponential-backoff retransmission: every
//                         request reaches a terminal state.
//
// The faulted run executes twice with the same seed and must produce
// identical counters (the subsystem's determinism contract).
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "fault/fault_injector.hpp"
#include "net/topology.hpp"
#include "workload/micro.hpp"

using namespace src;

namespace {

using common::IoType;
using common::kMillisecond;
using common::Rate;

struct Outcome {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t error_completions = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t rerouted = 0;
  double read_gbps = 0.0;
  double end_ms = 0.0;
  bool all_complete = false;

  bool operator==(const Outcome&) const = default;
};

Outcome run(bool with_faults, bool with_retry, std::uint64_t seed) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  auto topo = net::make_star(network, 2, Rate::gbps(10.0), common::kMicrosecond);
  fabric::FabricContext context;
  fabric::Initiator initiator(network, topo.hosts[0], context);
  fabric::TargetConfig target_config;
  target_config.device_count = 4;
  fabric::Target target(network, topo.hosts[1], context, target_config);

  if (with_retry) {
    fabric::RetryPolicy policy;
    policy.enabled = true;
    policy.base_timeout = 2 * kMillisecond;
    policy.max_timeout = 16 * kMillisecond;
    policy.max_retries = 10;
    initiator.set_retry_policy(policy);
  }

  fault::FaultPlan plan;
  plan.seed = seed;
  if (with_faults) {
    plan.packet_drops.push_back(
        {topo.hosts[0], 0, 50 * kMillisecond, 100 * kMillisecond, 0.3});
    plan.outages.push_back({0, 1, 80 * kMillisecond, 140 * kMillisecond});
    plan.transient_errors.push_back(
        {0, 2, 20 * kMillisecond, 60 * kMillisecond, 0.2});
  }
  fault::FaultInjector injector(network, plan);
  injector.add_target(target);
  injector.arm();

  workload::Trace trace;
  for (int i = 0; i < 2000; ++i) {
    trace.push_back({common::microseconds(100.0 * i),
                     i % 3 == 0 ? IoType::kWrite : IoType::kRead,
                     static_cast<std::uint64_t>(i) << 20, 32768});
  }
  initiator.run_trace(trace, [&](const workload::TraceRecord&, std::size_t) {
    return target.node_id();
  });
  sim.run_until(2 * common::kSecond);

  Outcome out;
  out.completed =
      initiator.stats().reads_completed + initiator.stats().writes_completed;
  out.failed = initiator.stats().requests_failed();
  out.retries = initiator.stats().retries;
  out.timeouts = initiator.stats().timeouts;
  out.error_completions = initiator.stats().error_completions;
  out.packets_dropped = injector.stats().packets_dropped;
  out.rerouted = target.stats().rerouted_requests;
  out.end_ms = common::to_microseconds(sim.now()) / 1000.0;
  out.read_gbps =
      sim.now() > 0
          ? 8.0 * static_cast<double>(initiator.stats().read_bytes_received) /
                static_cast<double>(sim.now())
          : 0.0;
  out.all_complete = initiator.all_complete();
  return out;
}

void add_row(common::TextTable& table, const char* label, const Outcome& o) {
  table.add_row({label, std::to_string(o.completed), std::to_string(o.failed),
                 std::to_string(o.retries), std::to_string(o.timeouts),
                 std::to_string(o.error_completions),
                 std::to_string(o.packets_dropped), std::to_string(o.rerouted),
                 common::fmt(o.read_gbps), common::fmt(o.end_ms),
                 o.all_complete ? "yes" : "NO"});
}

}  // namespace

int main() {
  std::printf("Fault resilience — NVMe-oF timeout/retry under injected faults\n");
  std::printf("(1 initiator x 1 target/4 devices, 2000 requests over 200 ms;\n");
  std::printf(" 30%% drop window 50-100 ms, device outage 80-140 ms,\n");
  std::printf(" transient errors 20-60 ms)\n\n");

  const Outcome healthy = run(false, false, 42);
  const Outcome no_retry = run(true, false, 42);
  const Outcome with_retry = run(true, true, 42);
  const Outcome replay = run(true, true, 42);

  common::TextTable table({"Configuration", "done", "failed", "retries",
                           "timeouts", "errcomp", "drops", "rerouted",
                           "read Gbps", "end ms", "terminated"});
  add_row(table, "healthy", healthy);
  add_row(table, "faults, no retry", no_retry);
  add_row(table, "faults + retry", with_retry);
  table.print(std::cout);

  std::printf("\nDeterminism: identical seeds -> identical runs: %s\n",
              with_retry == replay ? "PASS" : "FAIL");
  if (!(with_retry == replay)) return 1;
  if (!with_retry.all_complete) {
    std::printf("ERROR: faulted run with retry left requests in flight\n");
    return 1;
  }
  return 0;
}

// The paper's full testbed topology at reduced activity: the 4-pod Clos
// with 256 hosts (SIV-A) on the pod grammar's ToR / agg / spine tree, half
// initiators / half targets, an active subset replaying read-intensive
// workloads cross-pod under DCQCN-only and DCQCN-SRC with ECN/PFC active
// and SRC per target. This is the scale demonstration; the per-figure
// reproductions use the small calibrated presets (fig7/fig10/table4).
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/table.hpp"
#include "core/presets.hpp"
#include "core/src_controller.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "net/topology.hpp"
#include "workload/micro.hpp"

using namespace src;
using common::Rate;

namespace {

struct Outcome {
  double read_gbps = 0.0;
  double write_gbps = 0.0;
  std::uint64_t congestion_signals = 0;
  std::uint64_t events = 0;
  std::size_t adjustments = 0;
};

Outcome run(bool use_src, const core::Tpm* tpm) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::NetConfig net_config;
  net_config.pfc.xoff_bytes = 96 * 1024;
  net_config.pfc.xon_bytes = 48 * 1024;
  net::Network network(lanes, net_config);
  // 4 Gbps links (DESIGN SS5), 8:1 at the ToR, a non-blocking spine tier.
  const net::PodGrammar grammar{.pods = 4, .racks_per_pod = 4, .hosts_per_rack = 16,
                                .host_rate = Rate::gbps(4.0),
                                .rack_uplink_rate = Rate::gbps(8.0)};
  const auto topo = net::make_pod(network, grammar, net::PartitionPolicy::kNone);

  constexpr std::size_t kActiveInitiators = 16;
  constexpr std::size_t kTargetsPerInitiator = 2;
  const std::size_t half = topo.hosts.size() / 2;

  std::vector<std::unique_ptr<fabric::Initiator>> initiators;
  std::vector<std::unique_ptr<fabric::Target>> targets;
  std::vector<std::unique_ptr<core::WorkloadMonitor>> monitors;
  std::vector<std::unique_ptr<core::SrcController>> controllers;

  for (std::size_t i = 0; i < kActiveInitiators; ++i) {
    initiators.push_back(std::make_unique<fabric::Initiator>(
        network, topo.hosts[i * 8]));
  }
  common::ThroughputTimeline write_timeline{common::kMillisecond};
  for (std::size_t t = 0; t < kActiveInitiators * kTargetsPerInitiator; ++t) {
    fabric::TargetConfig config;
    config.driver_mode = use_src ? fabric::DriverMode::kSsq : fabric::DriverMode::kFifo;
    config.seed = 1 + t;
    targets.push_back(std::make_unique<fabric::Target>(
        network, topo.hosts[half + t * 4], config));
    fabric::Target& target = *targets.back();
    target.set_write_complete_listener(
        [&write_timeline](common::SimTime when, std::uint32_t bytes) {
          write_timeline.record(when, bytes);
        });
    if (use_src) {
      monitors.push_back(std::make_unique<core::WorkloadMonitor>());
      controllers.push_back(std::make_unique<core::SrcController>(*tpm, *monitors.back()));
      core::WorkloadMonitor& monitor = *monitors.back();
      core::SrcController& controller = *controllers.back();
      controller.set_weight_setter([&target](std::uint32_t w) { target.set_weight_ratio(w); });
      target.set_submit_listener([&monitor, &sim](const nvme::IoRequest& request) {
        monitor.observe(sim.now(), request.type, request.lba, request.bytes);
      });
      target.set_congestion_listener([&controller, &sim](Rate rate, bool decrease) {
        controller.on_congestion_event(sim.now(), rate.as_bytes_per_second(), decrease);
      });
    }
  }

  common::ThroughputTimeline read_timeline{common::kMillisecond};
  for (std::size_t i = 0; i < initiators.size(); ++i) {
    workload::MicroParams wl = workload::symmetric_micro(10.0, 44.0 * 1024, 6000);
    wl.write.mean_iat_us = 48.0;
    wl.write.count = 1250;
    const auto trace = workload::generate_micro(wl, 100 + i);
    initiators[i]->run_trace(
        trace, [&targets, i](const workload::TraceRecord&, std::size_t index) {
          return targets[(i * kTargetsPerInitiator + index % kTargetsPerInitiator) %
                         targets.size()]
              ->node_id();
        });
  }

  const common::SimTime horizon = 80 * common::kMillisecond;
  sim.run_until(horizon);

  Outcome outcome;
  for (const auto& initiator : initiators) {
    read_timeline.merge(initiator->read_timeline());
  }
  read_timeline.extend_to(horizon);
  write_timeline.extend_to(horizon);
  outcome.read_gbps = read_timeline.trimmed_mean_rate().as_gbps();
  outcome.write_gbps = write_timeline.trimmed_mean_rate().as_gbps();
  for (const auto& target : targets) {
    outcome.congestion_signals += target->stats().congestion_signals;
  }
  for (const auto& controller : controllers) {
    outcome.adjustments += controller->adjustments().size();
  }
  outcome.events = sim.executed_events();
  return outcome;
}

}  // namespace

int main() {
  std::printf("Clos testbed — the paper's 256-host fabric (4 pods x [agg + 4\n");
  std::printf("ToRs + 64 hosts] under a spine), 16 active initiators x 2 targets each,\n");
  std::printf("cross-pod read-intensive workloads, 80 ms horizon\n\n");
  std::printf("training TPM...\n\n");
  const core::Tpm tpm = core::train_default_tpm(ssd::ssd_a());

  const Outcome only = run(false, nullptr);
  const Outcome with_src = run(true, &tpm);

  common::TextTable table({"Mode", "read Gbps", "write Gbps", "aggregate",
                           "signals", "sim events", "adjustments"});
  table.add_row({"DCQCN-only", common::fmt(only.read_gbps),
                 common::fmt(only.write_gbps),
                 common::fmt(only.read_gbps + only.write_gbps),
                 std::to_string(only.congestion_signals),
                 std::to_string(only.events), "-"});
  table.add_row({"DCQCN-SRC", common::fmt(with_src.read_gbps),
                 common::fmt(with_src.write_gbps),
                 common::fmt(with_src.read_gbps + with_src.write_gbps),
                 std::to_string(with_src.congestion_signals),
                 std::to_string(with_src.events),
                 std::to_string(with_src.adjustments)});
  table.print(std::cout);

  const double gain = ((with_src.read_gbps + with_src.write_gbps) /
                           (only.read_gbps + only.write_gbps) -
                       1.0) * 100.0;
  std::printf("\naggregate improvement at fabric scale: %+.0f%%\n", gain);
  return 0;
}

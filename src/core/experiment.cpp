#include "core/experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "obs/fairness.hpp"

namespace src::core {

std::vector<double> ExperimentResult::read_shares() const {
  std::vector<double> values;
  values.reserve(per_initiator_read_rate.size());
  for (const common::Rate r : per_initiator_read_rate) {
    values.push_back(r.as_bytes_per_second());
  }
  return obs::throughput_shares(values);
}

double ExperimentResult::read_fairness_index() const {
  std::vector<double> values;
  values.reserve(per_initiator_read_rate.size());
  for (const common::Rate r : per_initiator_read_rate) {
    values.push_back(r.as_bytes_per_second());
  }
  return obs::jain_index(values);
}

void apply_initiator_cc(net::Network& network,
                        const std::vector<int>& initiator_cc,
                        std::span<const net::NodeId> initiators,
                        std::span<const net::NodeId> targets) {
  if (initiator_cc.empty()) return;
  if (initiator_cc.size() != initiators.size()) {
    throw std::invalid_argument("initiator_cc needs one entry per initiator");
  }
  for (std::size_t i = 0; i < initiators.size(); ++i) {
    network.host(initiators[i]).set_cc_algorithm(initiator_cc[i]);
    for (const net::NodeId t : targets) {
      network.host(t).set_peer_cc(initiators[i], initiator_cc[i]);
    }
  }
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (!config.trace_for) {
    throw std::invalid_argument("run_experiment: trace_for is required");
  }
  if (config.use_src && (config.tpm == nullptr || !config.tpm->fitted())) {
    throw std::invalid_argument("run_experiment: SRC mode needs a fitted TPM");
  }

  // Route the instrumentation macros in every layer at this experiment's
  // observatory (or nowhere) for the duration of the run.
  obs::ObsScope obs_scope(config.observatory);

  // One shard plan per lane setting. lanes == 0: one shard, the hub beside
  // the hosts. lanes >= 1: hosts on shard 0, the hub switch on shard 1 —
  // the only cut the star admits, because the monitors and result sinks
  // are shared by all hosts; LaneGroup clamps lanes to 2.
  sim::LaneGroup lanes(config.lanes == 0 ? 1 : 2, config.lanes);
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, config.net);
  const net::StarTopology topo = net::make_star(
      network, config.initiator_count + config.target_count, config.link_rate,
      config.link_delay, /*host_shard=*/0,
      /*hub_shard=*/static_cast<std::uint16_t>(config.lanes == 0 ? 0 : 1));

  const std::span<const net::NodeId> hosts(topo.hosts);
  apply_initiator_cc(network, config.initiator_cc,
                     hosts.first(config.initiator_count),
                     hosts.subspan(config.initiator_count, config.target_count));

  std::vector<std::unique_ptr<fabric::Initiator>> initiators;
  for (std::size_t i = 0; i < config.initiator_count; ++i) {
    initiators.push_back(std::make_unique<fabric::Initiator>(
        network, topo.hosts[i]));
    initiators.back()->set_retry_policy(config.retry_policy);
  }

  std::vector<net::NodeId> target_nodes;
  std::vector<std::unique_ptr<fabric::Target>> targets;
  for (std::size_t t = 0; t < config.target_count; ++t) {
    const net::NodeId node = topo.hosts[config.initiator_count + t];
    target_nodes.push_back(node);
    fabric::TargetConfig target_config;
    target_config.ssd = config.ssd;
    target_config.driver_mode = config.driver_mode.value_or(
        config.use_src ? fabric::DriverMode::kSsq : fabric::DriverMode::kFifo);
    target_config.device_count = config.devices_per_target;
    target_config.seed = config.seed + 31 * t;
    targets.push_back(std::make_unique<fabric::Target>(network, node, target_config));
  }

  ExperimentResult result;

  // Per-target write timeline and, in SRC mode, monitor + controller.
  std::vector<std::unique_ptr<WorkloadMonitor>> monitors;
  std::vector<std::unique_ptr<SrcController>> controllers;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    fabric::Target& target = *targets[t];
    target.set_write_complete_listener(
        [&result](common::SimTime when, std::uint32_t bytes) {
          result.write_timeline.record(when, bytes);
        });

    if (!config.use_src) continue;

    monitors.push_back(
        std::make_unique<WorkloadMonitor>(config.src_params.prediction_window));
    controllers.push_back(std::make_unique<SrcController>(
        *config.tpm, *monitors.back(), config.src_params));
    WorkloadMonitor& monitor = *monitors.back();
    SrcController& controller = *controllers.back();

    controller.set_weight_setter(
        [&target](std::uint32_t w) { target.set_weight_ratio(w); });
    target.set_submit_listener(
        [&monitor, &sim](const nvme::IoRequest& request) {
          monitor.observe(sim.now(), request.type, request.lba, request.bytes);
        });
    const double device_share = 1.0 / static_cast<double>(config.devices_per_target);
    target.set_congestion_listener(
        [&controller, &sim, device_share](common::Rate demanded, bool decrease) {
          controller.on_congestion_event(
              sim.now(), demanded.as_bytes_per_second() * device_share, decrease);
        });
  }

  // Rig hook: attach any externally owned machinery (fault injectors etc.)
  // now that every component is built and wired. The returned state lives
  // until this function returns.
  std::shared_ptr<void> rig_state;
  if (config.rig_hook) {
    ExperimentRig rig{sim, network, {}, {}, {}};
    for (const auto& initiator : initiators) rig.initiators.push_back(initiator.get());
    for (const auto& target : targets) rig.targets.push_back(target.get());
    for (const auto& controller : controllers) rig.controllers.push_back(controller.get());
    rig_state = config.rig_hook(rig);
  }

  // Replay workloads: each initiator spreads its requests round-robin over
  // all targets.
  common::SimTime last_arrival = 0;
  for (std::size_t i = 0; i < initiators.size(); ++i) {
    const workload::Trace trace = config.trace_for(i);
    if (!trace.empty()) last_arrival = std::max(last_arrival, trace.back().arrival);
    initiators[i]->run_trace(
        // srclint:capture-ok(selector runs synchronously inside run_trace)
        trace, [&target_nodes](const workload::TraceRecord&, std::size_t index) {
          return target_nodes[index % target_nodes.size()];
        });
  }

  // Run in slices so we can stop as soon as all requests complete. A
  // sparse trace can have nothing in flight at a slice boundary, so the
  // stop also waits for the last arrival to have been issued.
  const common::SimTime slice = 5 * common::kMillisecond;
  common::SimTime deadline = 0;
  bool all_done = false;
  while (deadline < config.max_time) {
    deadline += slice;
    lanes.run_until(deadline);
    // Staleness watchdog poll: a no-op returning immediately unless
    // SrcParams::staleness_window opted in, so healthy runs are untouched.
    for (const auto& controller : controllers) {
      controller->check_staleness(sim.now());
    }
    all_done = deadline >= last_arrival;
    for (const auto& initiator : initiators) {
      if (!initiator->all_complete()) {
        all_done = false;
        break;
      }
    }
    if (all_done || lanes.drained()) break;
  }

  result.completed = all_done;
  result.end_time = lanes.now();
  result.events_executed = lanes.executed_events();
  result.cross_shard_messages = lanes.cross_shard_messages();

  result.per_initiator_read_rate.reserve(initiators.size());
  for (const auto& initiator : initiators) {
    result.read_timeline.merge(initiator->read_timeline());
    common::ThroughputTimeline own = initiator->read_timeline();
    own.extend_to(result.end_time);
    result.per_initiator_read_rate.push_back(own.trimmed_mean_rate());
    result.reads_completed += initiator->stats().reads_completed;
    result.writes_completed += initiator->stats().writes_completed;
    result.reads_failed += initiator->stats().reads_failed;
    result.writes_failed += initiator->stats().writes_failed;
    result.retries += initiator->stats().retries;
    result.timeouts += initiator->stats().timeouts;
    result.error_completions += initiator->stats().error_completions;
    result.read_latency.merge(initiator->stats().read_latency);
    result.write_latency.merge(initiator->stats().write_latency);
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    result.pause_timeline.merge(targets[t]->pause_timeline());
    result.total_pauses += targets[t]->stats().pauses_received;
    result.total_cnps += network.host(target_nodes[t]).stats().cnps_received;
    result.errors_returned += targets[t]->stats().errors_returned;
    result.rerouted_requests += targets[t]->stats().rerouted_requests;
    result.signals_suppressed += targets[t]->stats().signals_suppressed;
  }
  for (const auto& controller : controllers) {
    result.adjustments.insert(result.adjustments.end(),
                              controller->adjustments().begin(),
                              controller->adjustments().end());
    result.controller_stats.invalid_demand_events +=
        controller->stats().invalid_demand_events;
    result.controller_stats.rejected_predictions +=
        controller->stats().rejected_predictions;
    result.controller_stats.watchdog_decays +=
        controller->stats().watchdog_decays;
  }

  result.read_timeline.extend_to(result.end_time);
  result.write_timeline.extend_to(result.end_time);
  result.read_rate = result.read_timeline.trimmed_mean_rate();
  result.write_rate = result.write_timeline.trimmed_mean_rate();

  // Core-layer summary gauges, recorded once per run.
  SRC_OBS_GAUGE("core.read_rate_mbps", result.read_rate.as_mbps());
  SRC_OBS_GAUGE("core.write_rate_mbps", result.write_rate.as_mbps());
  SRC_OBS_GAUGE("core.total_pauses", static_cast<double>(result.total_pauses));
  SRC_OBS_GAUGE("core.final_weight_ratio",
                static_cast<double>(result.final_weight_ratio()));
  SRC_OBS_GAUGE("core.end_time_ms", common::to_milliseconds(result.end_time));
  SRC_OBS_GAUGE("core.read_jain_index", result.read_fairness_index());
  return result;
}

}  // namespace src::core

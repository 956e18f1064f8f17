#include "scenario/build.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "net/partition.hpp"
#include "scenario/registry.hpp"
#include "verify/rig_verifier.hpp"

namespace src::scenario {

namespace {

/// Shared star/pod resolution of the workload list into a trace factory.
std::function<workload::Trace(std::size_t)> make_trace_factory(
    const ScenarioSpec& spec) {
  if (spec.workloads.empty()) {
    throw std::invalid_argument("scenario '" + spec.name +
                                "': no workloads defined");
  }
  if (spec.workloads.size() != 1 &&
      spec.workloads.size() != spec.topology.initiators) {
    throw std::invalid_argument(
        "scenario '" + spec.name + "': " + std::to_string(spec.workloads.size()) +
        " workloads for " + std::to_string(spec.topology.initiators) +
        " initiators (need 1 shared entry or one per initiator)");
  }
  // The factory outlives `spec`; capture the workload list by value behind
  // a shared_ptr so copying the config stays cheap.
  const auto workloads =
      std::make_shared<const std::vector<WorkloadSpec>>(spec.workloads);
  const std::uint64_t base_seed = spec.seed;
  return [workloads, base_seed](std::size_t index) {
    const WorkloadSpec& w =
        workloads->size() == 1 ? workloads->front() : (*workloads)[index];
    return workload_registry().at(w.kind)(
        w, base_seed + w.seed_stride * static_cast<std::uint64_t>(index));
  };
}

/// Shared star/pod resolution of the initiator CC override list.
std::vector<int> make_initiator_cc(const ScenarioSpec& spec) {
  if (!spec.initiators.empty() && spec.initiators.size() != 1 &&
      spec.initiators.size() != spec.topology.initiators) {
    throw std::invalid_argument(
        "scenario '" + spec.name + "': " +
        std::to_string(spec.initiators.size()) + " initiator entries for " +
        std::to_string(spec.topology.initiators) +
        " initiators (need 1 shared entry or one per initiator)");
  }
  std::vector<int> cc;
  if (spec.initiators.empty()) return cc;
  cc.reserve(spec.topology.initiators);
  for (std::size_t i = 0; i < spec.topology.initiators; ++i) {
    const InitiatorSpec& ini = spec.initiators.size() == 1
                                   ? spec.initiators.front()
                                   : spec.initiators[i];
    cc.push_back(ini.cc.empty() ? spec.net.cc_algorithm
                                : cc_registry().at(ini.cc));
  }
  return cc;
}

/// A pod run as an ExperimentResult: rates are bytes over end_time, as
/// PodExperimentResult::read_rate() defines them.
core::ExperimentResult from_pod(const core::PodExperimentResult& pod) {
  const auto over_run = [&pod](std::uint64_t bytes) {
    if (pod.end_time <= 0) return common::Rate::zero();
    return common::Rate::bytes_per_second(static_cast<double>(bytes) * 1e9 /
                                          static_cast<double>(pod.end_time));
  };
  core::ExperimentResult result;
  std::uint64_t write_bytes = 0;
  for (const std::uint64_t b : pod.per_target_write_bytes) write_bytes += b;
  for (const std::uint64_t b : pod.per_initiator_read_bytes) {
    result.per_initiator_read_rate.push_back(over_run(b));
  }
  result.read_rate = pod.read_rate();
  result.write_rate = over_run(write_bytes);
  result.total_pauses = pod.total_pauses;
  result.reads_completed = pod.reads_completed;
  result.writes_completed = pod.writes_completed;
  result.events_executed = pod.events_executed;
  result.cross_shard_messages = pod.cross_shard_messages;
  result.completed = pod.completed;
  result.end_time = pod.end_time;
  return result;
}

}  // namespace

BuiltScenario build(const ScenarioSpec& spec, const BuildOptions& options) {
  if (spec.topology.kind == "pod") {
    throw std::invalid_argument(
        "scenario '" + spec.name +
        "': pod-kind scenarios run on the lane engine — use "
        "scenario::build_pod / scenario::run");
  }
  BuiltScenario built;
  core::ExperimentConfig& config = built.config;

  config.lanes = spec.lanes;
  config.initiator_count = spec.topology.initiators;
  config.target_count = spec.topology.targets;
  config.devices_per_target = spec.topology.devices_per_target;
  config.link_rate = spec.topology.link_rate;
  config.link_delay = spec.topology.link_delay;
  config.net = spec.net;
  config.ssd = spec.ssd;
  config.use_src = spec.src.enabled;
  config.src_params = spec.src.params;
  config.retry_policy = spec.retry;
  config.seed = spec.seed;
  config.max_time = spec.max_time;
  config.observatory = options.observatory;
  config.driver_mode = driver_registry().at(spec.driver);

  if (options.tpm != nullptr) {
    config.tpm = options.tpm;
  } else {
    built.owned_tpm = tpm_registry().at(spec.src.tpm.source)(spec.src.tpm, spec.ssd);
    config.tpm = built.owned_tpm.get();
  }
  if (config.use_src && config.tpm == nullptr) {
    throw std::invalid_argument(
        "scenario '" + spec.name +
        "': src.enabled needs a TPM — set src.tpm.source "
        "(\"train-default\" or \"file\") or pass one via BuildOptions");
  }

  config.trace_for = make_trace_factory(spec);
  config.initiator_cc = make_initiator_cc(spec);

  if (!spec.faults.empty()) {
    const fault::FaultPlan plan = spec.faults;
    config.rig_hook = [plan](const core::ExperimentRig& rig) {
      auto injector = std::make_shared<fault::FaultInjector>(rig.network, plan);
      for (fabric::Target* target : rig.targets) injector->add_target(*target);
      // run_experiment builds controller i for target i.
      for (std::size_t i = 0; i < rig.controllers.size(); ++i) {
        injector->add_controller(*rig.controllers[i], rig.targets[i]->node_id());
      }
      injector->arm();
      return injector;
    };
  }

  if (spec.verify.enabled) {
    built.verify_report = std::make_shared<verify::Report>();
    verify::VerifyConfig vcfg;
    vcfg.io_accounting = spec.verify.io_accounting;
    vcfg.driver_conservation = spec.verify.driver_conservation;
    vcfg.ssq_tokens = spec.verify.ssq_tokens;
    vcfg.retry_bound = spec.verify.retry_bound;
    vcfg.overlap_order = spec.verify.overlap_order;
    vcfg.monotone_time = spec.verify.monotone_time;
    vcfg.liveness = spec.verify.liveness;
    vcfg.poll_interval = spec.verify.poll_interval;
    vcfg.poll_until = spec.max_time;
    vcfg.fault_horizon = spec.faults.horizon();
    vcfg.liveness_grace = spec.verify.liveness_grace;
    vcfg.max_violations = spec.verify.max_violations;
    // Chain the verifier behind whatever hook is already installed (the
    // fault injector above, or a caller's). The bundle destroys the
    // verifier first, then the inner state — both before the rig itself,
    // so the verifier's drain audit sees live components.
    auto inner = std::move(config.rig_hook);
    auto report = built.verify_report;
    config.rig_hook = [inner, vcfg,
                       report](const core::ExperimentRig& rig)
        -> std::shared_ptr<void> {
      struct Bundle {
        std::shared_ptr<void> inner_state;
        std::unique_ptr<verify::RigVerifier> verifier;
      };
      auto bundle = std::make_shared<Bundle>();
      if (inner) bundle->inner_state = inner(rig);
      bundle->verifier =
          std::make_unique<verify::RigVerifier>(rig, vcfg, report);
      return bundle;
    };
  }

  return built;
}

core::ExperimentResult run(const ScenarioSpec& spec, const BuildOptions& options) {
  if (spec.topology.kind == "pod") {
    return from_pod(core::run_pod_experiment(build_pod(spec, options)));
  }
  const BuiltScenario built = build(spec, options);
  return core::run_experiment(built.config);
}

core::PodExperimentConfig build_pod(const ScenarioSpec& spec,
                                    const BuildOptions& options) {
  if (spec.topology.kind != "pod") {
    throw std::invalid_argument("scenario '" + spec.name +
                                "': topology kind '" + spec.topology.kind +
                                "' is not \"pod\" — use scenario::build");
  }
  const PodSpec& pod = spec.topology.pod;
  const auto policy = net::parse_partition_policy(pod.partition);
  if (!policy.has_value()) {
    throw std::invalid_argument(
        "scenario '" + spec.name + "': unknown partition policy '" +
        pod.partition + "' (known: " + net::known_partition_policies() + ")");
  }

  core::PodExperimentConfig config;
  config.grammar.pods = pod.pods;
  config.grammar.racks_per_pod = pod.racks_per_pod;
  config.grammar.hosts_per_rack = pod.hosts_per_rack;
  config.grammar.oversubscription = pod.oversubscription;
  config.grammar.host_rate = pod.host_rate;
  config.grammar.rack_uplink_rate = pod.rack_uplink_rate;
  config.grammar.spine_uplink_rate = pod.spine_uplink_rate;
  config.grammar.host_link_delay = pod.host_link_delay;
  config.grammar.rack_uplink_delay = pod.rack_uplink_delay;
  config.grammar.spine_uplink_delay = pod.spine_uplink_delay;
  config.partition = *policy;
  config.lanes = spec.lanes == 0 ? 1 : spec.lanes;
  config.net = spec.net;
  config.initiator_count = spec.topology.initiators;
  config.target_count = spec.topology.targets;
  config.stripe_width = pod.stripe_width;
  config.initiator_cc = make_initiator_cc(spec);
  config.trace_for = make_trace_factory(spec);
  config.max_time = spec.max_time;
  config.observatory = options.observatory;
  return config;
}

}  // namespace src::scenario

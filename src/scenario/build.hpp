// Turn a declarative ScenarioSpec into a runnable core::ExperimentConfig.
// This is the single seam between manifests and the simulator: presets,
// `srcctl run`, the benches, and the examples all route through build(),
// so a scenario behaves identically no matter which front end launched it.
#pragma once

#include <memory>

#include "core/experiment.hpp"
#include "core/podscale.hpp"
#include "scenario/spec.hpp"
#include "verify/invariants.hpp"

namespace src::scenario {

/// Caller-supplied machinery a spec cannot carry as data.
struct BuildOptions {
  /// Pre-fitted TPM; overrides the spec's `src.tpm` source when set. Lets
  /// sweeps train once and share the model across every point.
  const core::Tpm* tpm = nullptr;
  /// Optional observability sink, passed through to the experiment.
  obs::Observatory* observatory = nullptr;
};

/// build() output. `config` may reference `owned_tpm` (when the spec's tpm
/// source produced one), so keep the whole struct alive until the run ends.
struct BuiltScenario {
  core::ExperimentConfig config;
  std::shared_ptr<const core::Tpm> owned_tpm;
  /// Invariant-checker findings, populated during the run; non-null exactly
  /// when the spec's `verify.enabled` is set.
  std::shared_ptr<verify::Report> verify_report;
};

/// Resolve every registry name in `spec` (driver, congestion controller,
/// workload kinds, tpm source), materialize the per-initiator trace factory
/// and — when the spec carries a fault plan — a rig hook that arms a
/// fault::FaultInjector over the built rig. Throws std::invalid_argument
/// on unresolvable names or an SRC run with no TPM.
BuiltScenario build(const ScenarioSpec& spec, const BuildOptions& options = {});

/// Run a spec of either topology kind. A star runs build() +
/// core::run_experiment, keeping the owned TPM alive throughout. A pod runs
/// core::run_pod_experiment(build_pod(spec, options)) and reports it as an
/// ExperimentResult: read and write rates are bytes over end_time
/// (per-initiator reads likewise), and there are no SRC adjustments,
/// timelines or latency samples.
core::ExperimentResult run(const ScenarioSpec& spec,
                           const BuildOptions& options = {});

/// Pod-kind counterpart of build(): resolves a "pod" topology spec into a
/// core::PodExperimentConfig (grammar, partition policy, lane count, trace
/// factory, per-initiator CC). Throws std::invalid_argument when the spec's
/// topology kind is not "pod".
core::PodExperimentConfig build_pod(const ScenarioSpec& spec,
                                    const BuildOptions& options = {});

}  // namespace src::scenario

// Declarative scenario manifests. A ScenarioSpec is pure data: everything
// that defines one end-to-end experiment — topology and link rates, the
// network config and congestion-controller choice, the SSD model, the NVMe
// driver policy, per-initiator workloads, SRC parameters and where the TPM
// comes from, the retry policy, a fault plan, seeds, and run caps. It
// serializes losslessly to and from JSON (schema "src-scenario-v1", see
// scenario/serialize.hpp) so experiments are versionable artifacts instead
// of hand-built C++: `srcctl run scenario.json` reproduces a run without
// recompiling, and sweep grids are a spec plus per-point overrides.
//
// Compare-equal semantics: every sub-struct has a defaulted operator==, and
// serialize(parse(serialize(spec))) == serialize(spec) byte-for-byte. Spec
// builders must therefore only fill the *active* payload of a WorkloadSpec
// (the kinds not selected stay default-constructed, which is what a parse
// of the emitted JSON reproduces).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/src_controller.hpp"
#include "fabric/protocol.hpp"
#include "fault/fault_plan.hpp"
#include "net/config.hpp"
#include "ssd/config.hpp"
#include "workload/micro.hpp"
#include "workload/mmpp.hpp"

namespace src::scenario {

/// Pod-grammar block, meaningful only when TopologySpec::kind == "pod":
/// pods x racks_per_pod x hosts_per_rack with a ToR per rack, an
/// aggregation switch per pod, and one spine. Uplink rates left at zero are
/// derived from the oversubscription ratio (net::PodGrammar).
struct PodSpec {
  std::size_t pods = 2;
  std::size_t racks_per_pod = 2;
  std::size_t hosts_per_rack = 16;
  double oversubscription = 1.0;
  /// Shard layout: "rack" (default), "pod", or "none" (net::PartitionPolicy).
  std::string partition = "rack";
  /// Each I/O record is striped over this many consecutive targets.
  std::size_t stripe_width = 1;
  common::Rate host_rate = common::Rate::gbps(40.0);
  common::Rate rack_uplink_rate{};   ///< zero = derive from oversubscription
  common::Rate spine_uplink_rate{};  ///< zero = derive from oversubscription
  common::SimTime host_link_delay = common::kMicrosecond;
  common::SimTime rack_uplink_delay = common::kMicrosecond;
  common::SimTime spine_uplink_delay = 2 * common::kMicrosecond;

  friend bool operator==(const PodSpec&, const PodSpec&) = default;
};

/// Fabric shape and link calibration. `kind` selects the topology family:
/// "star" (the historical single-switch fabric with the full NVMe-oF stack)
/// or "pod" (the declarative pod grammar, run on the sharded lane engine by
/// core::run_pod_experiment). For "pod", initiators/targets count hosts
/// drawn from the grammar (initiators from the first pod up, targets from
/// the last pod down) and link_rate/link_delay are unused — the pod block
/// carries per-tier rates instead.
struct TopologySpec {
  std::string kind = "star";
  std::size_t initiators = 1;
  std::size_t targets = 2;
  std::size_t devices_per_target = 1;
  common::Rate link_rate = common::Rate::gbps(40.0);
  common::SimTime link_delay = common::kMicrosecond;
  PodSpec pod;  ///< kind == "pod"

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// One workload description. `kind` is a workload-registry key ("micro",
/// "synthetic", "trace-file"); only the payload matching the kind is
/// meaningful and spec builders must leave the others at their defaults.
/// The trace seed for initiator i is `ScenarioSpec::seed + seed_stride * i`
/// (the strides the presets historically used: 1, 13, 17).
struct WorkloadSpec {
  std::string kind = "micro";
  workload::MicroParams micro;          ///< kind == "micro"
  workload::SyntheticParams synthetic;  ///< kind == "synthetic"
  std::string trace_path;               ///< kind == "trace-file" (CSV)
  std::uint64_t seed_stride = 1;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Per-initiator overrides for mixed-CC coexistence scenarios. `cc` is a
/// cc-registry name ("dcqcn", "dctcp", "swift", "cubic"); empty means the
/// scenario-wide NetConfig choice. The override governs every flow that
/// initiator's traffic rides — including the target-side read-data flows
/// paced back to it.
struct InitiatorSpec {
  std::string cc;

  friend bool operator==(const InitiatorSpec&, const InitiatorSpec&) = default;
};

/// Where scenario::build obtains the fitted TPM an SRC run needs.
///  "none"          — caller must pass one via BuildOptions (or SRC is off)
///  "train-default" — core::train_default_tpm(ssd, train_seed)
///  "file"          — core::Tpm::load_file(path)
struct TpmSpec {
  std::string source = "none";
  std::string path;             ///< source == "file"
  std::uint64_t train_seed = 11;  ///< source == "train-default"

  friend bool operator==(const TpmSpec&, const TpmSpec&) = default;
};

/// SRC controller block: off by default; when enabled the run is
/// DCQCN-SRC (SSQ driver unless pinned otherwise) with these parameters.
struct SrcSpec {
  bool enabled = false;
  core::SrcParams params;
  TpmSpec tpm;

  friend bool operator==(const SrcSpec&, const SrcSpec&) = default;
};

/// Runtime invariant verification (src/verify). Off by default — ordinary
/// runs pay nothing. When enabled, scenario::build attaches a
/// verify::RigVerifier to the rig with these checker toggles;
/// BuiltScenario::verify_report carries what it saw. Chaos reproducer
/// manifests ship with this block enabled so `srcctl run` re-checks them.
struct VerifySpec {
  bool enabled = false;
  bool io_accounting = true;
  bool driver_conservation = true;
  bool ssq_tokens = true;
  bool retry_bound = true;
  bool overlap_order = true;
  bool monotone_time = true;
  bool liveness = true;
  common::SimTime poll_interval = common::kMillisecond;
  common::SimTime liveness_grace = 20 * common::kMillisecond;
  std::uint64_t max_violations = 64;

  friend bool operator==(const VerifySpec&, const VerifySpec&) = default;
};

/// One complete experiment, as data. Field-for-field this covers
/// core::ExperimentConfig, with the callable/pointer members replaced by
/// declarative equivalents resolved through the component registries
/// (scenario/registry.hpp) at build time.
struct ScenarioSpec {
  std::string name = "scenario";
  std::string description;

  TopologySpec topology;
  net::NetConfig net;  ///< cc_algorithm is (de)serialized as a registry name
  ssd::SsdConfig ssd = ssd::ssd_a();
  /// NVMe driver policy: "auto" (SSQ when SRC is on, FIFO otherwise),
  /// "ssq", or "fifo" — a driver-registry key.
  std::string driver = "auto";

  /// One entry shared by every initiator (seeded per index), or exactly
  /// one entry per initiator.
  std::vector<WorkloadSpec> workloads;

  /// Empty (every initiator uses the NetConfig congestion control), one
  /// shared entry, or exactly one entry per initiator.
  std::vector<InitiatorSpec> initiators;

  SrcSpec src;
  fabric::RetryPolicy retry;
  fault::FaultPlan faults;
  VerifySpec verify;

  std::uint64_t seed = 1;
  common::SimTime max_time = 5 * common::kSecond;

  /// Lane-engine shard plan and worker lanes. Star kind: 0 = one shard
  /// holding every node; >= 1 = hosts | hub shards run by that many lanes,
  /// with results identical across lane counts. Pod-kind scenarios run
  /// their partition's shards, so lanes is clamped up to 1 there; it must
  /// not exceed the partition's shard count (validated at parse time).
  std::size_t lanes = 0;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

}  // namespace src::scenario

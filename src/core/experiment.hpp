// End-to-end experiment driver: builds a star fabric of initiators and
// targets over the congested network, replays workloads, and measures the
// paper's metrics — read throughput at initiators, write throughput at
// targets, aggregated throughput, and pause number — under DCQCN-only or
// DCQCN-SRC.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "common/latency.hpp"
#include "common/stats.hpp"
#include "core/src_controller.hpp"
#include "core/tpm.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "workload/trace.hpp"

namespace src::core {

/// The live components of one experiment, exposed to a RigHook after
/// construction and wiring but before workload replay. Pointers stay valid
/// for the duration of the run.
struct ExperimentRig {
  sim::Simulator& sim;
  net::Network& network;
  std::vector<fabric::Initiator*> initiators;
  std::vector<fabric::Target*> targets;
  std::vector<SrcController*> controllers;  ///< empty unless use_src
};

struct ExperimentConfig {
  std::size_t initiator_count = 1;
  std::size_t target_count = 2;
  ssd::SsdConfig ssd = ssd::ssd_a();
  std::size_t devices_per_target = 1;

  /// DCQCN-SRC (true) or DCQCN-only (false). SRC requires a fitted TPM.
  bool use_src = false;
  const Tpm* tpm = nullptr;
  SrcParams src_params;

  net::NetConfig net;
  common::Rate link_rate = common::Rate::gbps(40.0);
  common::SimTime link_delay = common::kMicrosecond;

  /// Per-initiator congestion-control override (net::CcAlgorithm values).
  /// Empty: every host runs net.cc_algorithm. When set it must have
  /// exactly initiator_count entries; initiator i's uplink flows *and* the
  /// target-side flows carrying its read data run algorithm [i].
  std::vector<int> initiator_cc;

  /// Per-initiator workload (index -> trace). Required.
  std::function<workload::Trace(std::size_t initiator_index)> trace_for;

  /// Initiator-side timeout/retry policy. Disabled by default: the lossless
  /// fabric needs none, and an enabled policy arms one timer per request,
  /// which perturbs event ordering. Enable it for fault-injection runs.
  fabric::RetryPolicy retry_policy;

  /// Targets' NVMe driver queueing policy. Unset (default) derives it from
  /// use_src — SSQ under SRC, FIFO otherwise, the paper's pairing — while
  /// the scenario layer can pin either explicitly (e.g. SSQ without SRC).
  std::optional<fabric::DriverMode> driver_mode;

  /// Extension hook invoked once after the rig is built and wired, before
  /// workload replay. Whatever it returns is kept alive until the run
  /// finishes, so upper layers (which core cannot depend on) can attach
  /// stateful machinery — the scenario layer arms a fault::FaultInjector
  /// this way. Unset for ordinary runs.
  std::function<std::shared_ptr<void>(const ExperimentRig&)> rig_hook;

  /// Shard plan and lane count. 0 (default) runs one shard holding every
  /// node. >= 1 splits the star in two — hosts on shard 0, the hub switch
  /// on shard 1, conservative sync on the link delay — run by min(lanes,
  /// 2) threads; results are identical at every lanes >= 1, but differ
  /// from the one-shard plan in event tie-ordering at the hub boundary, so
  /// the two plans keep separate goldens. They also differ in end_time:
  /// LaneGroup::now() is the largest shard clock, and a drained hub shard's
  /// clock has jumped to the slice deadline, so at lanes >= 1 end_time
  /// can read the 5 ms slice boundary (fig10_heavy: 200 ms, not 199.981195 ms).
  std::size_t lanes = 0;

  /// Safety cap on simulated time.
  common::SimTime max_time = 5 * common::kSecond;
  std::uint64_t seed = 1;

  /// Optional observability sink. When set, the run records counters,
  /// histograms, and (if the observatory's tracing flag is on) trace events
  /// into it; recording is passive, so results are identical either way.
  obs::Observatory* observatory = nullptr;
};

struct ExperimentResult {
  common::ThroughputTimeline read_timeline{common::kMillisecond};
  common::ThroughputTimeline write_timeline{common::kMillisecond};
  common::EventTimeline pause_timeline{common::kMillisecond};

  common::Rate read_rate;   ///< trimmed mean, measured at initiators
  common::Rate write_rate;  ///< trimmed mean, measured at targets
  common::Rate aggregate_rate() const { return read_rate + write_rate; }

  /// Per-initiator read throughput (trimmed mean over each initiator's own
  /// timeline) — the allocation vector the fairness metrics summarize.
  std::vector<common::Rate> per_initiator_read_rate;
  /// Fractional read-throughput share of each initiator (sums to 1).
  std::vector<double> read_shares() const;
  /// Jain's fairness index over the per-initiator read throughputs.
  double read_fairness_index() const;

  /// End-to-end latency distributions measured at the initiators.
  common::LatencyRecorder read_latency;
  common::LatencyRecorder write_latency;

  std::uint64_t total_pauses = 0;
  std::uint64_t total_cnps = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t events_executed = 0;  ///< kernel events the run dispatched
  std::uint64_t cross_shard_messages = 0;  ///< lane-engine cross-shard sends

  // Robustness counters (all zero in healthy runs).
  std::uint64_t reads_failed = 0;        ///< retry budget exhausted
  std::uint64_t writes_failed = 0;
  std::uint64_t retries = 0;             ///< initiator retransmissions
  std::uint64_t timeouts = 0;            ///< request timers that fired
  std::uint64_t error_completions = 0;   ///< kErrorComp capsules received
  std::uint64_t errors_returned = 0;     ///< error capsules sent by targets
  std::uint64_t rerouted_requests = 0;   ///< re-striped around offline devices
  std::uint64_t signals_suppressed = 0;  ///< congestion signals lost to faults
  SrcControllerStats controller_stats;   ///< summed guardrail counters

  bool completed = false;  ///< every trace request issued and finished before max_time
  common::SimTime end_time = 0;
  std::vector<AdjustmentRecord> adjustments;  ///< SRC weight changes

  /// Final WRR weight ratio (1 when SRC never adjusted or was disabled).
  std::uint32_t final_weight_ratio() const {
    return adjustments.empty() ? 1 : adjustments.back().weight_ratio;
  }
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// Apply a per-initiator congestion-control override (mixed-CC
/// coexistence); both runners call it before any flow exists. Initiator
/// i's choice governs its own uplink flows and the flows every target
/// paces read data back to it with. Empty `initiator_cc` leaves every host
/// on net.cc_algorithm; otherwise it needs one entry per initiator.
void apply_initiator_cc(net::Network& network,
                        const std::vector<int>& initiator_cc,
                        std::span<const net::NodeId> initiators,
                        std::span<const net::NodeId> targets);

}  // namespace src::core

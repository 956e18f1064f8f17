// Pod-scale experiment driver: runs an initiator/target I/O workload over a
// pod-grammar topology (net::make_pod) on the sharded lane engine, with
// initiators and targets placed in different pods so read/write traffic
// crosses the oversubscribed rack and spine uplinks.
//
// Unlike core::run_experiment, which models the full NVMe-oF stack on a
// star fabric, the pod runner uses a lean read-capsule protocol directly on
// net::Host messages: a write is a push of the record's bytes (tag 0), a
// read is a 64-byte capsule carrying the requested size in its tag (high
// bit set) that the target answers with a message of that size (tag 1).
// Every accumulator is owned by the shard of the host whose handler writes
// it, so the runner adds no cross-shard shared state, and completion is
// polled between slices while the lanes are quiescent. Results are
// therefore a pure function of the configuration — identical at any lane
// count — which the lane-determinism golden asserts byte-for-byte via
// snapshot().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "workload/trace.hpp"

namespace src::core {

struct PodExperimentConfig {
  net::PodGrammar grammar;
  net::PartitionPolicy partition = net::PartitionPolicy::kByRack;
  /// Lane (thread) count for the lane engine; clamped to the shard count.
  std::size_t lanes = 1;

  net::NetConfig net;

  /// Initiators occupy the first hosts (pod 0 first), targets the last
  /// hosts (the tail pod), in grammar host order. Their sum must not
  /// exceed the grammar's host count.
  std::size_t initiator_count = 8;
  std::size_t target_count = 8;
  /// Each I/O record is split into `stripe_width` chunks sent to
  /// consecutive targets (round-robin by record index).
  std::size_t stripe_width = 1;

  /// Per-initiator congestion-control override (net::CcAlgorithm values);
  /// empty means every host runs net.cc_algorithm. Read-data flows from a
  /// target back to initiator i are also paced by algorithm [i].
  std::vector<int> initiator_cc;

  /// Per-initiator workload (index -> trace). Required.
  std::function<workload::Trace(std::size_t initiator_index)> trace_for;

  common::SimTime max_time = common::kSecond;

  obs::Observatory* observatory = nullptr;
};

struct PodExperimentResult {
  std::vector<std::uint64_t> per_initiator_read_bytes;
  std::vector<std::uint64_t> per_target_write_bytes;
  std::uint64_t reads_completed = 0;   ///< read chunks answered
  std::uint64_t writes_completed = 0;  ///< write chunks delivered
  std::uint64_t total_pauses = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t cross_shard_messages = 0;
  /// Lane-engine windows executed. Lane-count invariant like the rest, but
  /// engine telemetry rather than a model outcome, so snapshot() omits it.
  std::uint64_t windows = 0;
  bool completed = false;
  common::SimTime end_time = 0;

  /// Jain's fairness index over per-initiator read bytes.
  double read_fairness_index() const;
  /// Aggregate read throughput (read bytes / end_time).
  common::Rate read_rate() const;

  /// Deterministic integer-only rendering of the result for byte-identical
  /// golden comparison across lane counts.
  std::string snapshot() const;
};

PodExperimentResult run_pod_experiment(const PodExperimentConfig& config);

}  // namespace src::core

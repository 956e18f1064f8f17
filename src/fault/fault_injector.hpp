// Executes a FaultPlan against a built stack: installs per-port drop
// filters for network faults, schedules simulator events for device and
// control-plane fault windows, and hooks controllers' TPM predictions.
//
// Determinism contract: each lane-engine shard draws from its own RNG
// stream (shard 0's is seeded by the plan seed itself, the others by
// seeds derived from it), consumed in the shard's packet-arrival order
// (itself deterministic), so a fixed (topology, workload, plan) triple
// replays bit-identically at any lane count. Every window and counter
// reads the clock of the node it acts on and counts on that node's shard.
// An empty plan installs nothing, schedules nothing, and draws nothing —
// runs with and without an armed empty injector are indistinguishable.
//
// Usage: build network/targets/controllers, construct the injector,
// register targets and controllers in plan-index order, then arm() once
// before Simulator::run().
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/src_controller.hpp"
#include "fabric/target.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"

namespace src::fault {

struct FaultInjectorStats {
  std::uint64_t packets_dropped = 0;     ///< by drop windows + downed links
  std::uint64_t tpm_corruptions = 0;     ///< predictions corrupted in-window
  std::uint64_t device_faults_applied = 0;  ///< latency/outage/transient edges
  std::uint64_t signal_loss_windows = 0;
};

class FaultInjector {
 public:
  FaultInjector(net::Network& network, FaultPlan plan);

  /// Register the target at the next plan index (add order defines the
  /// `target` index in FaultPlan entries). Call before arm().
  void add_target(fabric::Target& target);
  /// Same, for `controller` indices in TpmFault entries; `node` is the
  /// host the controller steers (its clock times the fault windows).
  void add_controller(core::SrcController& controller, NodeId node);

  /// Install filters/hooks and schedule all fault windows. Call exactly
  /// once, before the simulation runs. Throws std::out_of_range when the
  /// plan references a target/controller/device that was not registered.
  void arm();
  bool armed() const { return armed_; }

  const FaultPlan& plan() const { return plan_; }
  /// Summed over shards.
  FaultInjectorStats stats() const;

 private:
  /// A drop window bound to one concrete port. Link-down faults expand to
  /// one per direction with `certain` set (no RNG draw for them, so a
  /// downed link never perturbs the probabilistic draw sequence).
  struct PortWindow {
    NodeId node = net::kInvalidNode;
    std::int32_t port = -1;
    SimTime start = 0;
    SimTime end = 0;
    double probability = 1.0;
    bool certain = false;
  };

  /// One shard's drop-filter stream and counters, touched only by the
  /// thread running that shard.
  struct alignas(64) Shard {
    common::Rng rng;
    FaultInjectorStats stats;
  };

  net::Node& node(NodeId id);
  Shard& shard_of(NodeId id) { return shards_[network_.shard_of(id)]; }
  void install_drop_filter(NodeId id, std::int32_t port);
  bool should_drop(NodeId id, std::int32_t port, SimTime now, Shard& shard);
  void schedule_device_faults();
  void schedule_signal_loss();
  void install_prediction_hooks();
  double corrupt(std::size_t controller_index, double read_bytes_per_sec);

  net::Network& network_;
  FaultPlan plan_;
  std::vector<Shard> shards_;
  std::vector<fabric::Target*> targets_;
  std::vector<core::SrcController*> controllers_;
  std::vector<NodeId> controller_nodes_;  ///< parallel to controllers_
  std::vector<PortWindow> windows_;
  bool armed_ = false;
};

}  // namespace src::fault

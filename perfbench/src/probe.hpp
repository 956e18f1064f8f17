// Benchmark-side rig hook: snapshots the public statistics of every live
// component of a core::run_experiment rig just before the rig is torn down,
// and a digest of the simulated result so runs can be compared bit for bit.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.hpp"

namespace perfbench {

/// Component statistics summed over one rig.
struct RigStats {
  bool captured = false;

  // net: switches, ports, hosts
  std::uint64_t packets_forwarded = 0;
  std::uint64_t pfc_pauses_sent = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t cnps_received = 0;
  std::uint64_t max_queue_bytes = 0;

  // fabric: initiators and targets
  std::uint64_t reads_issued = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t reads_failed = 0;
  std::uint64_t writes_failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t writes_served = 0;
  std::uint64_t congestion_signals = 0;

  // nvme: drivers and SSQ arbiters
  std::uint64_t commands = 0;  ///< fetched to a device
  std::uint64_t driver_accepted_reads = 0;
  std::uint64_t driver_accepted_writes = 0;
  std::uint64_t driver_completed_reads = 0;
  std::uint64_t driver_completed_writes = 0;
  std::uint64_t fetched_rsq = 0;
  std::uint64_t fetched_wsq = 0;
  std::uint64_t borrowed = 0;

  // ssd: devices
  std::size_t devices = 0;
  double cmt_hit_ratio_sum = 0.0;
  double chip_utilization_sum = 0.0;
  std::uint64_t cache_absorbed_writes = 0;
  std::uint64_t device_writes = 0;

  // core: SRC controllers
  std::uint64_t adjustments = 0;
  std::uint64_t weight_changes = 0;

  void add(const RigStats& other);
};

/// Chains a hook after whatever `config.rig_hook` scenario::build installed
/// (fault injector, verifier). When run_experiment releases the hook state
/// — after the run, before any component is destroyed — the live rig's
/// statistics are written to `out`, which must outlive the run.
void attach_probe(src::core::ExperimentConfig& config, RigStats& out);

/// Exact, order-stable rendering of a star result's simulated statistics
/// (doubles as hex floats), reduced to a 64-bit digest.
std::uint64_t result_digest(const src::core::ExperimentResult& result);

}  // namespace perfbench

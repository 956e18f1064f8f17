// Standalone storage rig: replays a block trace directly against an NVMe
// driver + SSD device with no network attached. This is the harness used
// to (a) collect TPM training samples across (workload, weight-ratio)
// grids, (b) regenerate Fig. 5, and (c) unit-test driver/device behaviour.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "nvme/ssq_driver.hpp"
#include "ssd/config.hpp"
#include "workload/trace.hpp"

namespace src::core {

struct StandaloneResult {
  common::Rate read_rate;        ///< trimmed mean read completion rate
  common::Rate write_rate;       ///< trimmed mean write completion rate
  common::Rate aggregate_rate() const { return read_rate + write_rate; }
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t events_executed = 0;  ///< kernel events the run dispatched
  double mean_read_latency_us = 0.0;
  double mean_write_latency_us = 0.0;
  common::ThroughputTimeline read_timeline{common::kMillisecond};
  common::ThroughputTimeline write_timeline{common::kMillisecond};
};

struct StandaloneOptions {
  /// WRR write:read weight ratio (read weight fixed to 1, per the paper).
  std::uint32_t weight_ratio = 1;
  /// Use the SSQ driver (true) or the FIFO baseline (false).
  bool use_ssq = true;
  std::uint64_t seed = 1;
  /// Trim fraction when computing mean rates (paper trims 10% both ends).
  double trim = 0.1;
  /// Stop the simulation at this time even if requests are still pending
  /// (0 = run to completion). Fig. 5 and TPM sample collection measure the
  /// *sustained* service mix, so they stop at the end of the arrival
  /// process instead of waiting for the backlog to drain.
  common::SimTime horizon = 0;
};

/// Horizon matching the trace's arrival span (last arrival time).
common::SimTime arrival_horizon(const workload::Trace& trace);

/// Run `trace` to completion on a fresh device with the given config. The
/// trace must be sorted by arrival (std::invalid_argument otherwise).
StandaloneResult run_standalone(const ssd::SsdConfig& config,
                                const workload::Trace& trace,
                                const StandaloneOptions& options = {});

}  // namespace src::core

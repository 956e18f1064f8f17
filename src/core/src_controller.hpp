// SRC dynamic weight adjustment (paper Algorithm 1).
//
// PredictWeightRatio: given the demanded data sending rate r from the
// network congestion controller and the current workload characteristics
// Ch, search w = 1, 2, 3, ... for the weight ratio whose predicted read
// throughput is closest to r, stopping once predictions converge (relative
// change below tau) and returning the argmin.
//
// DynamicAdjustment: for each congestion event (pause or retrieval),
// extract Ch over the previous prediction window and apply the predicted
// weight ratio to the SSQ.
//
// Robustness guardrails (always on — they are pure finite-value checks):
// non-finite or wildly out-of-range TPM predictions, and non-finite or
// non-positive demanded rates, make the controller fall back to the
// last-known-good weight ratio instead of acting on garbage. A staleness
// watchdog (opt-in via SrcParams::staleness_window) decays the weight
// ratio back toward 1 when no congestion signal has arrived within the
// window, so a lost control plane cannot pin writes down forever.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/tpm.hpp"
#include "core/workload_monitor.hpp"

namespace src::core {

struct SrcParams {
  /// Convergence threshold tau on the relative change of predicted read
  /// throughput between consecutive weight ratios (paper uses 10%).
  double tau = 0.10;
  /// Safety bound on the weight-ratio search.
  std::uint32_t max_weight_ratio = 64;
  /// Minimum spacing between applied adjustments; congestion notifications
  /// can arrive per-CNP (~50 us apart) while weight changes act on the
  /// multi-ms scale, so the controller debounces them.
  common::SimTime min_adjust_interval = common::kMillisecond;
  /// Prediction window delta over which the workload monitor collects Ch.
  common::SimTime prediction_window = 10 * common::kMillisecond;
  /// Staleness window for the signal watchdog: when check_staleness(now)
  /// observes no congestion signal for this long, the weight ratio halves
  /// toward 1 (congestion evidently cleared — or the signal path died).
  /// 0 (default) disables the watchdog.
  common::SimTime staleness_window = 0;
  /// Reject TPM throughput predictions above this (bytes/sec); such values
  /// cannot come from a sane model of a real device.
  double max_sane_throughput = 1e12;

  friend bool operator==(const SrcParams&, const SrcParams&) = default;
};

/// One applied adjustment, for the Fig. 9-style control-delay analysis.
struct AdjustmentRecord {
  common::SimTime when = 0;
  double demanded_bytes_per_sec = 0.0;
  std::uint32_t weight_ratio = 1;
  bool decrease = false;  ///< pause (true) vs retrieval (false) event
};

/// Robustness counters: how often the guardrails had to step in.
struct SrcControllerStats {
  std::uint64_t invalid_demand_events = 0;   ///< NaN/inf/<=0 demanded rate
  std::uint64_t rejected_predictions = 0;    ///< TPM output failed sanity checks
  std::uint64_t watchdog_decays = 0;         ///< staleness-driven weight decays
};

class SrcController {
 public:
  using WeightSetter = std::function<void(std::uint32_t weight_ratio)>;
  /// Fault-injection hook: maps each predicted read throughput (bytes/sec)
  /// before the guardrails see it (the guardrails are the code under
  /// test). Called once per candidate weight the search visits.
  using PredictionHook = std::function<double(double read_bytes_per_sec)>;

  SrcController(const Tpm& tpm, WorkloadMonitor& monitor, SrcParams params = {})
      : tpm_(tpm), monitor_(monitor), params_(params) {}

  void set_weight_setter(WeightSetter fn) { setter_ = std::move(fn); }
  void set_prediction_hook(PredictionHook fn) { prediction_hook_ = std::move(fn); }

  /// Paper Algorithm 1, PredictWeightRatio (lines 10-29). Falls back to the
  /// current (last-known-good) weight ratio on invalid inputs/predictions.
  std::uint32_t predict_weight_ratio(double demanded_bytes_per_sec,
                                     const workload::WorkloadFeatures& ch) const;

  /// Paper Algorithm 1, DynamicAdjustment body for one congestion event.
  /// `decrease` distinguishes pause from retrieval events (bookkeeping
  /// only; the search is identical).
  void on_congestion_event(common::SimTime now, double demanded_bytes_per_sec,
                           bool decrease);

  /// Signal watchdog: call periodically. When no congestion signal has
  /// arrived within params.staleness_window, halves the weight ratio
  /// toward 1 (at most once per window interval). No-op when the watchdog
  /// is disabled or w is already 1.
  void check_staleness(common::SimTime now);

  std::uint32_t current_weight_ratio() const { return current_w_; }
  common::SimTime last_signal_time() const { return last_signal_; }
  const std::vector<AdjustmentRecord>& adjustments() const { return log_; }
  const SrcControllerStats& stats() const { return stats_; }

 private:
  /// Predicted read throughput at weight w, through the fault hook (if
  /// any) and the finiteness and range guardrails; nullopt (counted in
  /// rejected_predictions) when it must not be acted upon.
  std::optional<double> sane_prediction(const workload::WorkloadFeatures& ch,
                                        std::uint32_t w) const;

  const Tpm& tpm_;
  WorkloadMonitor& monitor_;
  SrcParams params_;
  WeightSetter setter_;
  PredictionHook prediction_hook_;
  std::uint32_t current_w_ = 1;
  common::SimTime last_adjust_ = -common::kSecond;
  common::SimTime last_signal_ = 0;
  common::SimTime last_decay_ = 0;
  std::vector<AdjustmentRecord> log_;
  mutable SrcControllerStats stats_;
};

}  // namespace src::core

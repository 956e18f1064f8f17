#include "core/src_controller.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace src::core {

std::optional<double> SrcController::sane_prediction(
    const workload::WorkloadFeatures& ch, std::uint32_t w) const {
  double read = tpm_.predict_read(ch, static_cast<double>(w));
  if (prediction_hook_) read = prediction_hook_(read);
  if (!std::isfinite(read) || read < 0.0 || read > params_.max_sane_throughput) {
    ++stats_.rejected_predictions;
    SRC_OBS_COUNT("src.rejected_predictions");
    return std::nullopt;
  }
  return read;
}

std::uint32_t SrcController::predict_weight_ratio(
    double demanded, const workload::WorkloadFeatures& ch) const {
  // Guardrail: a congestion controller can only demand a finite positive
  // rate; anything else (lost signal decoded as garbage, uninitialised
  // state) must not drive the search. Keep the last-known-good weight.
  if (!std::isfinite(demanded) || demanded <= 0.0) {
    ++stats_.invalid_demand_events;
    SRC_OBS_COUNT("src.invalid_demand_events");
    return current_w_;
  }

  // Lines 11-13: w <- 1, w* <- 1, min_dis <- INF.
  std::uint32_t w = 1;
  std::uint32_t w_star = 1;

  // Line 14: predict at w = 1.
  const std::optional<double> at_one = sane_prediction(ch, w);
  if (!at_one) return current_w_;

  // Lines 15-17: if the SSD cannot even reach r at equal priority, no
  // throttling is needed.
  if (*at_one < demanded) return w;

  // Line 18.
  double min_dis = std::abs(*at_one - demanded);

  // Lines 19-28: increase w until the predicted read throughput converges.
  double prev_tput = 0.0;
  double cur_tput = *at_one;
  do {
    ++w;
    if (w > params_.max_weight_ratio) break;
    prev_tput = cur_tput;
    const std::optional<double> read = sane_prediction(ch, w);
    if (!read) {
      // Model went insane mid-search: act on the best point validated so
      // far rather than discarding the whole search.
      return w_star;
    }
    const double dis = std::abs(*read - demanded);
    if (dis < min_dis) {
      min_dis = dis;
      w_star = w;
    }
    cur_tput = *read;
  } while (prev_tput > 0.0 &&
           std::abs(prev_tput - cur_tput) / prev_tput >= params_.tau);

  // Line 29.
  return w_star;
}

void SrcController::on_congestion_event(common::SimTime now, double demanded,
                                        bool decrease) {
  last_signal_ = now;  // even a debounced signal proves the path is alive
  if (now - last_adjust_ < params_.min_adjust_interval) return;

  const workload::WorkloadFeatures ch = monitor_.features(now);
  const std::uint32_t w = predict_weight_ratio(demanded, ch);
  last_adjust_ = now;
  SRC_OBS_COUNT("src.adjustments");
  if (w != current_w_) {
    current_w_ = w;
    if (setter_) setter_(w);
    SRC_OBS_COUNT("src.weight_changes");
    SRC_OBS_INSTANT("core", "src.adjust", now, 0, static_cast<double>(w));
  }
  SRC_OBS_TRACE_COUNTER("core", "src.weight_ratio", now, 0,
                        static_cast<double>(current_w_));
  log_.push_back(AdjustmentRecord{now, demanded, w, decrease});
}

void SrcController::check_staleness(common::SimTime now) {
  if (params_.staleness_window <= 0) return;
  if (now - last_signal_ < params_.staleness_window) return;
  if (current_w_ <= 1) return;
  // Rate-limit decays so a tight polling loop still steps once per window.
  if (now - last_decay_ < params_.staleness_window) return;
  last_decay_ = now;
  current_w_ = std::max(1u, current_w_ / 2);
  ++stats_.watchdog_decays;
  SRC_OBS_COUNT("src.watchdog_decays");
  SRC_OBS_INSTANT("core", "src.watchdog_decay", now, 0,
                  static_cast<double>(current_w_));
  SRC_OBS_TRACE_COUNTER("core", "src.weight_ratio", now, 0,
                        static_cast<double>(current_w_));
  if (setter_) setter_(current_w_);
}

}  // namespace src::core

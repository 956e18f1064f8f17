#include "core/src_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "core/presets.hpp"
#include "workload/micro.hpp"

namespace src::core {
namespace {

struct Rig {
  Tpm tpm;
  WorkloadMonitor monitor{10 * common::kMillisecond};
  workload::WorkloadFeatures heavy_ch;

  Rig() {
    TrainingGrid grid;
    for (double iat : {15.0, 40.0}) {
      grid.traces.push_back(workload::generate_micro(
          workload::symmetric_micro(iat, 44.0 * 1024, 1500), 3 + (int)iat));
    }
    grid.weight_ratios = {1, 2, 3, 4, 6, 8};
    tpm.fit(collect_training_data(ssd::ssd_a(), grid));
    const auto trace = workload::generate_micro(
        workload::symmetric_micro(15.0, 44.0 * 1024, 1500), 55);
    heavy_ch = workload::extract_features(trace);
  }
};

TEST(ControllerTest, HighDemandNeedsNoThrottle) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  // Demand far above what the SSD can read: Alg 1 line 15-17 returns 1.
  EXPECT_EQ(ctl.predict_weight_ratio(100e9, rig.heavy_ch), 1u);
}

TEST(ControllerTest, LowDemandRaisesWeightRatio) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  const auto at_w1 = rig.tpm.predict(rig.heavy_ch, 1.0);
  // Demand well below the w=1 read throughput forces a search upward.
  const std::uint32_t w =
      ctl.predict_weight_ratio(at_w1.read_bytes_per_sec * 0.3, rig.heavy_ch);
  EXPECT_GT(w, 1u);
}

TEST(ControllerTest, LowerDemandNeverLowersWeight) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  const auto at_w1 = rig.tpm.predict(rig.heavy_ch, 1.0);
  const std::uint32_t w_mild =
      ctl.predict_weight_ratio(at_w1.read_bytes_per_sec * 0.7, rig.heavy_ch);
  const std::uint32_t w_harsh =
      ctl.predict_weight_ratio(at_w1.read_bytes_per_sec * 0.3, rig.heavy_ch);
  EXPECT_GE(w_harsh, w_mild);
}

TEST(ControllerTest, ChosenWeightMinimizesDistance) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  const double demanded = rig.tpm.predict(rig.heavy_ch, 1.0).read_bytes_per_sec * 0.5;
  const std::uint32_t w_star = ctl.predict_weight_ratio(demanded, rig.heavy_ch);
  const double chosen_dist =
      std::abs(rig.tpm.predict(rig.heavy_ch, w_star).read_bytes_per_sec - demanded);
  // No smaller w gives a strictly better match (w* is the argmin over the
  // visited prefix; smaller w are always visited).
  for (std::uint32_t w = 1; w < w_star; ++w) {
    const double dist =
        std::abs(rig.tpm.predict(rig.heavy_ch, w).read_bytes_per_sec - demanded);
    EXPECT_GE(dist, chosen_dist) << "w=" << w;
  }
}

TEST(ControllerTest, EventAppliesWeightThroughSetter) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  std::vector<std::uint32_t> applied;
  ctl.set_weight_setter([&](std::uint32_t w) { applied.push_back(w); });

  // Feed the monitor a heavy workload so Ch is meaningful.
  for (int i = 0; i < 400; ++i) {
    rig.monitor.observe(common::microseconds(15.0 * i),
                        i % 2 ? common::IoType::kWrite : common::IoType::kRead,
                        static_cast<std::uint64_t>(i) << 20, 44 * 1024);
  }
  const auto at_w1 = rig.tpm.predict(rig.monitor.features(common::microseconds(6000)), 1.0);
  ctl.on_congestion_event(common::microseconds(6000),
                          at_w1.read_bytes_per_sec * 0.3, true);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_GT(applied[0], 1u);
  EXPECT_EQ(ctl.current_weight_ratio(), applied[0]);
  EXPECT_EQ(ctl.adjustments().size(), 1u);
}

TEST(ControllerTest, DebounceSuppressesRapidEvents) {
  Rig rig;
  SrcParams params;
  params.min_adjust_interval = common::kMillisecond;
  SrcController ctl(rig.tpm, rig.monitor, params);
  ctl.on_congestion_event(10 * common::kMillisecond, 1e9, true);
  ctl.on_congestion_event(10 * common::kMillisecond + 100, 2e9, true);  // 100 ns later
  EXPECT_EQ(ctl.adjustments().size(), 1u);
  ctl.on_congestion_event(12 * common::kMillisecond, 2e9, true);
  EXPECT_EQ(ctl.adjustments().size(), 2u);
}

TEST(ControllerTest, SetterOnlyCalledOnChange) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  int calls = 0;
  ctl.set_weight_setter([&](std::uint32_t) { ++calls; });
  // Demand so high that w stays 1 (the initial value): no setter call.
  ctl.on_congestion_event(10 * common::kMillisecond, 100e9, true);
  ctl.on_congestion_event(20 * common::kMillisecond, 100e9, true);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(ctl.adjustments().size(), 2u);
}

TEST(ControllerTest, MaxWeightRatioBoundsSearch) {
  Rig rig;
  SrcParams params;
  params.max_weight_ratio = 3;
  SrcController ctl(rig.tpm, rig.monitor, params);
  const std::uint32_t w = ctl.predict_weight_ratio(1.0, rig.heavy_ch);  // ~zero demand
  EXPECT_LE(w, 3u);
}

TEST(ControllerTest, RetrievalEventsLogged) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  ctl.on_congestion_event(10 * common::kMillisecond, 1e9, false);
  ASSERT_EQ(ctl.adjustments().size(), 1u);
  EXPECT_FALSE(ctl.adjustments()[0].decrease);
}

// --- Robustness guardrails.

TEST(ControllerTest, NonPositiveDemandKeepsLastKnownGoodWeight) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  EXPECT_EQ(ctl.predict_weight_ratio(0.0, rig.heavy_ch), 1u);
  EXPECT_EQ(ctl.predict_weight_ratio(-5e8, rig.heavy_ch), 1u);
  EXPECT_EQ(ctl.stats().invalid_demand_events, 2u);
}

TEST(ControllerTest, NonFiniteDemandKeepsLastKnownGoodWeight) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ctl.predict_weight_ratio(nan, rig.heavy_ch), 1u);
  EXPECT_EQ(ctl.predict_weight_ratio(inf, rig.heavy_ch), 1u);
  EXPECT_EQ(ctl.stats().invalid_demand_events, 2u);
  EXPECT_TRUE(ctl.adjustments().empty());
}

TEST(ControllerTest, EmptyWorkloadWindowIsHandled) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  // No observations were fed to the monitor: features over an empty window
  // must still produce a usable (if degenerate) Ch, not a crash.
  const workload::WorkloadFeatures empty_ch =
      rig.monitor.features(50 * common::kMillisecond);
  const std::uint32_t w = ctl.predict_weight_ratio(1e8, empty_ch);
  EXPECT_GE(w, 1u);
  EXPECT_LE(w, SrcParams{}.max_weight_ratio);
}

TEST(ControllerTest, MaxWeightRatioOfOneSaturatesImmediately) {
  Rig rig;
  SrcParams params;
  params.max_weight_ratio = 1;
  SrcController ctl(rig.tpm, rig.monitor, params);
  EXPECT_EQ(ctl.predict_weight_ratio(1.0, rig.heavy_ch), 1u);
}

TEST(ControllerTest, NanPredictionFallsBackToCurrentWeight) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  ctl.set_prediction_hook(
      [](double) { return std::numeric_limits<double>::quiet_NaN(); });
  EXPECT_EQ(ctl.predict_weight_ratio(1e8, rig.heavy_ch), 1u);
  EXPECT_GT(ctl.stats().rejected_predictions, 0u);
}

TEST(ControllerTest, AbsurdPredictionIsRejected) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  ctl.set_prediction_hook([](double) { return 1e30; });  // > max_sane_throughput
  EXPECT_EQ(ctl.predict_weight_ratio(1e8, rig.heavy_ch), 1u);
  EXPECT_GT(ctl.stats().rejected_predictions, 0u);
}

TEST(ControllerTest, MidSearchInsanityReturnsBestValidatedWeight) {
  Rig rig;
  SrcController ctl(rig.tpm, rig.monitor);
  // The first prediction (w=1) passes; everything after goes insane, so
  // only w=1 is ever validated and the search must settle there.
  int calls = 0;
  ctl.set_prediction_hook([&calls](double read) { return ++calls > 1 ? -1.0 : read; });
  const double demanded =
      rig.tpm.predict(rig.heavy_ch, 1.0).read_bytes_per_sec * 0.3;
  EXPECT_EQ(ctl.predict_weight_ratio(demanded, rig.heavy_ch), 1u);
  EXPECT_GT(ctl.stats().rejected_predictions, 0u);
}

TEST(ControllerTest, StalenessWatchdogDecaysWeightTowardOne) {
  Rig rig;
  SrcParams params;
  params.staleness_window = 5 * common::kMillisecond;
  SrcController ctl(rig.tpm, rig.monitor, params);
  std::vector<std::uint32_t> applied;
  ctl.set_weight_setter([&](std::uint32_t w) { applied.push_back(w); });

  // Drive the weight up with a legitimate congestion event.
  const double demanded =
      rig.tpm.predict(rig.heavy_ch, 1.0).read_bytes_per_sec * 0.2;
  for (int i = 0; i < 400; ++i) {
    rig.monitor.observe(common::microseconds(15.0 * i),
                        i % 2 ? common::IoType::kWrite : common::IoType::kRead,
                        static_cast<std::uint64_t>(i) << 20, 44 * 1024);
  }
  ctl.on_congestion_event(6 * common::kMillisecond, demanded, true);
  ASSERT_GT(ctl.current_weight_ratio(), 1u);
  const std::uint32_t peak = ctl.current_weight_ratio();

  // Within the window: no decay.
  ctl.check_staleness(8 * common::kMillisecond);
  EXPECT_EQ(ctl.current_weight_ratio(), peak);
  EXPECT_EQ(ctl.stats().watchdog_decays, 0u);

  // Signals stop arriving: each elapsed window halves w until it hits 1.
  common::SimTime t = 12 * common::kMillisecond;
  while (ctl.current_weight_ratio() > 1 && t < common::kSecond) {
    ctl.check_staleness(t);
    t += params.staleness_window;
  }
  EXPECT_EQ(ctl.current_weight_ratio(), 1u);
  EXPECT_GT(ctl.stats().watchdog_decays, 0u);
  // Every decay went through the setter (the SSQ must actually see it).
  EXPECT_EQ(applied.back(), 1u);

  // At w=1 the watchdog has nothing left to do.
  const std::uint64_t decays = ctl.stats().watchdog_decays;
  ctl.check_staleness(t + 10 * params.staleness_window);
  EXPECT_EQ(ctl.stats().watchdog_decays, decays);
}

TEST(ControllerTest, FreshSignalArmsWatchdogTimer) {
  Rig rig;
  SrcParams params;
  params.staleness_window = 5 * common::kMillisecond;
  SrcController ctl(rig.tpm, rig.monitor, params);
  ctl.on_congestion_event(10 * common::kMillisecond, 1e9, true);
  EXPECT_EQ(ctl.last_signal_time(), 10 * common::kMillisecond);
  // A debounced (ignored) event still proves the signal path is alive.
  ctl.on_congestion_event(10 * common::kMillisecond + 100, 1e9, true);
  EXPECT_EQ(ctl.last_signal_time(), 10 * common::kMillisecond + 100);
}

// --- Differential check of the search against Algorithm 1 as written.

struct SearchOutcome {
  std::uint32_t w = 0;
  std::uint64_t rejected = 0;
};

// Lines 11-29 of Algorithm 1 over the full Tpm::predict, with the
// controller's guardrails (a rejected prediction at w = 1 keeps the
// current weight, 1 here; a later one returns the best weight so far).
SearchOutcome reference_search(const Tpm& tpm, const SrcParams& params, double r,
                               const workload::WorkloadFeatures& ch,
                               const SrcController::PredictionHook& hook) {
  SearchOutcome out;
  const auto predict = [&](std::uint32_t w) -> std::optional<double> {
    double read = tpm.predict(ch, static_cast<double>(w)).read_bytes_per_sec;
    if (hook) read = hook(read);
    if (!std::isfinite(read) || read < 0.0 || read > params.max_sane_throughput) {
      ++out.rejected;
      return std::nullopt;
    }
    return read;
  };
  out.w = 1;
  const std::optional<double> first = predict(1);
  if (!first || *first < r) return out;
  double min_dis = std::abs(*first - r);
  double prev = *first;
  for (std::uint32_t w = 2; w <= params.max_weight_ratio; ++w) {
    const std::optional<double> tput = predict(w);
    if (!tput) return out;
    if (std::abs(*tput - r) < min_dis) {
      min_dis = std::abs(*tput - r);
      out.w = w;
    }
    if (!(prev > 0.0) || std::abs(prev - *tput) / prev < params.tau) break;
    prev = *tput;
  }
  return out;
}

// A hook that passes predictions through and answers NaN on its k-th call
// (k = 0: never).
SrcController::PredictionHook reject_kth_call(int k, int& calls) {
  calls = 0;
  return [k, &calls](double read) {
    return ++calls == k ? std::numeric_limits<double>::quiet_NaN() : read;
  };
}

TEST(ControllerTest, SearchMatchesReferenceAlgorithm) {
  Rig rig;
  common::Rng rng(2024);
  int searches = 0;
  int climbed = 0;
  for (int trial = 0; trial < 12; ++trial) {
    workload::WorkloadFeatures ch = rig.heavy_ch;
    ch.read_ratio = rng.uniform(0.05, 0.95);
    for (double* f : {&ch.read_size_scv, &ch.write_size_scv, &ch.read_iat_scv,
                      &ch.write_iat_scv, &ch.read_flow_speed, &ch.write_flow_speed,
                      &ch.read_mean_size, &ch.write_mean_size}) {
      *f *= rng.uniform(0.3, 1.7);
    }
    const double at_w1 = rig.tpm.predict(ch, 1.0).read_bytes_per_sec;
    for (double scale : {0.05, 0.3, 0.6, 0.9, 0.999, 1.001, 2.0}) {
      const double demanded = at_w1 * scale;
      for (std::uint32_t max_w : {1u, 2u, 5u, 64u}) {
        for (double tau : {0.10, 0.01}) {
          for (int reject_at : {0, 1, 2, 3}) {
            SrcParams params;
            params.max_weight_ratio = max_w;
            params.tau = tau;
            int ctl_calls = 0;
            int ref_calls = 0;
            SrcController ctl(rig.tpm, rig.monitor, params);
            if (reject_at > 0) ctl.set_prediction_hook(reject_kth_call(reject_at, ctl_calls));
            const SearchOutcome want = reference_search(
                rig.tpm, params, demanded, ch,
                reject_at > 0 ? reject_kth_call(reject_at, ref_calls)
                              : SrcController::PredictionHook{});
            const std::uint32_t got = ctl.predict_weight_ratio(demanded, ch);
            ASSERT_EQ(got, want.w) << "trial " << trial << " scale " << scale
                                   << " max_w " << max_w << " tau " << tau
                                   << " reject_at " << reject_at;
            ASSERT_EQ(ctl.stats().rejected_predictions, want.rejected);
            ASSERT_EQ(ctl_calls, ref_calls);
            ++searches;
            if (want.w > 1) ++climbed;
          }
        }
      }
    }
  }
  // The grid must exercise the climb, not only the w = 1 exits.
  EXPECT_GT(climbed, searches / 10);
}

// A stand-in read/write model: both targets predict 1e9 * 2^-(min(w, p) - 1)
// for plateau p, and every row either model evaluates is counted.
class CountingModel final : public ml::Regressor {
 public:
  CountingModel(std::shared_ptr<std::uint64_t> rows, double plateau)
      : rows_(std::move(rows)), plateau_(plateau) {}
  void fit(const ml::Dataset&, std::size_t) override {}
  double predict(std::span<const double> x) const override {
    ++*rows_;
    return 1e9 * std::exp2(1.0 - std::min(x.back(), plateau_));
  }
  std::unique_ptr<ml::Regressor> clone() const override {
    return std::make_unique<CountingModel>(rows_, plateau_);
  }
  std::string name() const override { return "counting"; }

 private:
  std::shared_ptr<std::uint64_t> rows_;
  double plateau_;
};

TEST(ControllerTest, SearchEvaluatesOneReadRowPerVisitedWeight) {
  WorkloadMonitor monitor{10 * common::kMillisecond};
  const workload::WorkloadFeatures ch{};
  for (std::uint32_t plateau = 1; plateau <= 8; ++plateau) {
    auto rows = std::make_shared<std::uint64_t>(0);
    Tpm tpm{CountingModel(rows, plateau)};
    tpm.fit(ml::Dataset(kTpmFeatureCount, 2));
    SrcController ctl(tpm, monitor);
    int calls = 0;
    ctl.set_prediction_hook([&calls](double read) {
      ++calls;
      return read;
    });

    // Demand above the w = 1 prediction: the search stops at once.
    EXPECT_EQ(ctl.predict_weight_ratio(2e9, ch), 1u);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(*rows, 1u);

    // Demand below it: predictions halve up to w = plateau and repeat at
    // plateau + 1, where the relative change is 0 < tau. So the search
    // visits w = 1..plateau + 1, one read row each.
    calls = 0;
    *rows = 0;
    const std::uint32_t w = ctl.predict_weight_ratio(1e8, ch);
    const std::uint32_t k = plateau + 1;
    EXPECT_EQ(calls, static_cast<int>(k)) << "plateau " << plateau;
    EXPECT_EQ(*rows, k) << "plateau " << plateau;
    // 1e9 / 8 = 1.25e8 is the closest value to 1e8 on the halving path.
    EXPECT_EQ(w, std::min(plateau, 4u));
  }
}

}  // namespace
}  // namespace src::core

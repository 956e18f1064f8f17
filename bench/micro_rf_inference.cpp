// Cost of one TPM prediction (served by the forest's flat contiguous-node
// inference layout), of the PredictWeightRatio search when it climbs and
// when it stops at w = 1, and of Random Forest training. Emits
// BENCH_micro_rf_inference.json via the shared harness.
#include <cstdint>

#include "bench/harness.hpp"
#include "core/presets.hpp"
#include "core/src_controller.hpp"

namespace {

using namespace src;

const ml::Dataset& training_data() {
  static const ml::Dataset data =
      core::collect_training_data(ssd::ssd_a(), core::default_training_grid(2000));
  return data;
}

const core::Tpm& trained_tpm() {
  static const core::Tpm tpm = [] {
    core::Tpm fitted;
    fitted.fit(training_data());
    return fitted;
  }();
  return tpm;
}

workload::WorkloadFeatures heavy_features() {
  const auto trace = workload::generate_micro(
      workload::symmetric_micro(12.0, 40.0 * 1024, 4000), 3);
  return workload::extract_features(trace);
}

}  // namespace

int main() {
  src::bench::Harness harness("micro_rf_inference");

  const auto& tpm = trained_tpm();
  const auto ch = heavy_features();

  {
    double w = 1.0;
    double sink = 0.0;
    harness.repeat("tpm_predict", 1'000, [&] {
      for (int i = 0; i < 1'000; ++i) {
        sink += tpm.predict(ch, w).read_bytes_per_sec;
        w = w < 8.0 ? w + 1.0 : 1.0;
      }
      return 0;
    });
    if (sink < 0.0) std::printf("%f\n", sink);  // defeat dead-code elimination
  }

  // Two searches: one that climbs (demand well below the w = 1
  // prediction), and the common case on the paper's workloads, a demand
  // above it, where the search stops after one prediction.
  {
    core::WorkloadMonitor monitor;
    core::SrcController controller(tpm, monitor);
    const double at_w1 = tpm.predict_read(ch, 1.0);
    std::uint64_t sink = 0;
    const auto search = [&](const char* label, double demanded) {
      harness.repeat(label, 100, [&] {
        for (int i = 0; i < 100; ++i) {
          sink += controller.predict_weight_ratio(demanded, ch);
        }
        return 0;
      });
    };
    search("predict_weight_ratio", at_w1 * 0.4);
    search("predict_weight_ratio_stop_at_w1", at_w1 * 1.5);
    if (sink == ~0ull) std::printf("impossible\n");
  }

  harness.repeat(
      "forest_training", 1,
      [&] {
        core::Tpm fitted;
        fitted.fit(training_data());
        return 0;
      },
      /*min_seconds=*/0.5, /*min_iters=*/2);

  return 0;
}

// Ablation: sensitivity to the prediction window delta (paper SIII-C uses
// 10 ms). Too short a window sees too few requests to estimate Ch; too
// long a window reacts slowly to workload shifts. The workload alternates
// between a read-heavy and a more write-heavy phase every 40 ms so that a
// sluggish monitor actually pays a price.
//
// The window values are independent experiments sharing one trained TPM
// and run as a deterministic sweep (rows keyed by grid index only).
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "workload/mmpp.hpp"
#include "runner/runner.hpp"

using namespace src;

namespace {

workload::Trace phase_shifting_trace(std::uint64_t seed) {
  workload::Trace trace;
  const common::SimTime phase_len = 40 * common::kMillisecond;
  for (int phase = 0; phase < 3; ++phase) {
    workload::SyntheticParams params = workload::fujitsu_vdi_like(4000);
    if (phase % 2 == 0) {
      params.write.mean_iat_us = 48.0;  // read-heavy phase
      params.write.count = 800;
    } else {
      params.read.mean_iat_us = 30.0;  // calmer reads, denser writes
      params.read.count = 1300;
      params.write.mean_iat_us = 24.0;
      params.write.count = 1600;
    }
    workload::Trace segment = workload::generate_synthetic(params, seed + phase);
    for (auto& rec : segment) {
      rec.arrival += phase * phase_len;
      // Each phase keeps only its own window, so the trace stays in
      // arrival order.
      if (rec.arrival < (phase + 1) * phase_len) trace.push_back(rec);
    }
  }
  return trace;
}

core::ExperimentConfig phased_experiment(bool use_src, const core::Tpm* tpm) {
  auto config = scenario::build(scenario::vdi_spec(use_src), {.tpm = tpm}).config;
  config.trace_for = [](std::size_t index) {
    return phase_shifting_trace(500 + 31 * index);
  };
  return config;
}

}  // namespace

int main() {
  std::printf("Ablation — SRC prediction window delta (phase-shifting workload)\n\n");
  bench::Harness harness("ablation_window");

  std::printf("training TPM...\n\n");
  const core::Tpm tpm = core::train_default_tpm(ssd::ssd_a());

  core::ExperimentResult baseline;
  {
    auto scope = harness.scope("baseline");
    baseline = core::run_experiment(phased_experiment(false, nullptr));
    scope.events(baseline.events_executed);
    scope.items(1);
  }
  std::printf("DCQCN-only aggregate: %.2f Gbps\n\n",
              baseline.aggregate_rate().as_gbps());

  const std::vector<double> windows_ms = {0.05, 0.2, 1.0, 5.0, 10.0, 25.0, 50.0};
  std::vector<core::ExperimentResult> results;
  {
    auto scope = harness.scope("window_sweep");
    runner::SweepRunner pool;
    results = pool.map(windows_ms.size(), [&](std::size_t i) {
      auto config = phased_experiment(true, &tpm);
      config.src_params.prediction_window = common::milliseconds(windows_ms[i]);
      return core::run_experiment(config);
    });
    for (const auto& result : results) scope.events(result.events_executed);
    scope.items(results.size());
  }

  common::TextTable table({"window", "aggregate Gbps", "improvement",
                           "adjustments"});
  for (std::size_t i = 0; i < windows_ms.size(); ++i) {
    const auto& result = results[i];
    const double gain = (result.aggregate_rate().as_bytes_per_second() -
                         baseline.aggregate_rate().as_bytes_per_second()) /
                        baseline.aggregate_rate().as_bytes_per_second() * 100.0;
    table.add_row({common::fmt(windows_ms[i], 2) + " ms",
                   common::fmt(result.aggregate_rate().as_gbps()),
                   common::fmt(gain, 0) + "%",
                   std::to_string(result.adjustments.size())});
  }
  table.print(std::cout);

  std::printf("\nExpected: a broad plateau around the paper's 10 ms choice —\n"
              "the controller is robust to delta as long as the window holds\n"
              "enough requests for a stable Ch estimate; sub-millisecond\n"
              "windows (tens of requests) start to degrade.\n");
  return 0;
}

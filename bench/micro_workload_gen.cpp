// Trace generation and feature extraction cost, and the TPM training grid.
// Emits BENCH_micro_workload_gen.json via the shared harness so the
// generator throughput joins the committed perf-trajectory baselines.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/harness.hpp"
#include "core/presets.hpp"
#include "workload/features.hpp"
#include "workload/micro.hpp"
#include "workload/mmpp.hpp"

int main() {
  using namespace src;
  src::bench::Harness harness("micro_workload_gen");
  double sink = 0.0;

  for (const std::size_t n : {std::size_t{1'000}, std::size_t{10'000}}) {
    std::uint64_t seed = 1;
    harness.repeat("micro_trace/n=" + std::to_string(n), /*items_per_iter=*/2 * n, [&] {
      const auto trace =
          workload::generate_micro(workload::symmetric_micro(10.0, 32 * 1024, n), seed++);
      sink += static_cast<double>(trace.size());
      return 0;
    });
  }

  {
    // Every iteration re-fits both streams' MMPP(2) (nothing is cached)
    // before generating them.
    const auto params = workload::fujitsu_vdi_like(1'000);
    std::uint64_t seed = 1;
    harness.repeat("synthetic_trace/n=1000", /*items_per_iter=*/2'000, [&] {
      const auto trace = workload::generate_synthetic(params, seed++);
      sink += static_cast<double>(trace.size());
      return 0;
    });
  }

  {
    workload::Mmpp2Params params;
    workload::Mmpp2Generator gen(params, common::Rng(3));
    harness.repeat("mmpp2_arrivals", /*items_per_iter=*/1'000'000, [&] {
      for (int i = 0; i < 1'000'000; ++i) sink += gen.next_iat_us();
      return 0;
    });
  }

  {
    const auto trace =
        workload::generate_micro(workload::symmetric_micro(10.0, 32 * 1024, 10'000), 5);
    harness.repeat("feature_extraction/n=10000", /*items_per_iter=*/trace.size(), [&] {
      sink += workload::extract_features(trace).as_array()[0];
      return 0;
    });
  }

  {
    // The default TPM training grid: 60 micro traces of 6000 requests per
    // read stream, all held at once and generated on every hardware thread.
    // train_default_tpm draws the same traces one at a time, each on the
    // worker that replays its first cell, so this is the generation cost
    // alone.
    std::size_t records = 0;
    for (const auto& trace : core::default_training_grid(6000, 11).traces) {
      records += trace.size();
    }
    harness.repeat("training_grid", /*items_per_iter=*/records, [&] {
      const core::TrainingGrid grid = core::default_training_grid(6000, 11);
      sink += static_cast<double>(grid.traces.size());
      return 0;
    });
  }

  if (sink < 0.0) std::printf("%f\n", sink);  // defeat dead-code elimination
  return 0;
}

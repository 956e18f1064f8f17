// Reproduces Table III: Random Forest cross-validation accuracy on four
// synthetic-workload subsets classified by their spatial/temporal
// statistics (low/high SCV of request size x low/high SCV of inter-arrival
// time). Each subset is validated against a model trained on the other
// subsets plus all micro traces (paper SIV-C).
//
// Sample collection rides the deterministic sweep runner inside
// collect_training_data; the four hold-out fits are themselves independent
// and run as a sweep. Output is identical for any worker count.
#include <cstdio>
#include <iostream>
#include <utility>

#include "bench/harness.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "runner/runner.hpp"
#include "workload/mmpp.hpp"

using namespace src;

namespace {

struct Subset {
  const char* name;
  double size_scv;
  double iat_scv;
};

ml::Dataset collect_subset(const Subset& subset, std::uint64_t seed) {
  core::TrainingGrid grid;
  std::uint64_t trace_seed = seed;
  for (double iat_us : {10.0, 16.0, 26.0, 40.0}) {
    for (double size_kb : {16.0, 30.0, 44.0}) {
      workload::SyntheticParams params;
      params.read = workload::SyntheticStreamParams{iat_us, subset.iat_scv,
                                                    size_kb * 1024,
                                                    subset.size_scv, 5000};
      params.write = params.read;
      params.write.mean_iat_us = iat_us * 2.0;
      params.write.count = 2500;
      grid.traces.push_back(workload::generate_synthetic(params, ++trace_seed));
    }
  }
  grid.weight_ratios = {1, 2, 3, 4, 6, 8};
  grid.seed = seed;
  return core::collect_training_data(ssd::ssd_a(), grid);
}

}  // namespace

int main() {
  std::printf("Table III — cross-validation accuracy (Random Forest TPM)\n");
  std::printf("(validate on one synthetic subset; train on the remaining\n");
  std::printf(" subsets plus all micro traces)\n\n");

  const Subset subsets[] = {
      {"low size SCV + low inter-arrival SCV", 0.2, 1.0},
      {"low size SCV + high inter-arrival SCV", 0.2, 5.0},
      {"high size SCV + low inter-arrival SCV", 3.0, 1.0},
      {"high size SCV + high inter-arrival SCV", 3.0, 5.0},
  };

  bench::Harness harness("table3_crossval");

  std::printf("collecting samples (micro + 4 synthetic subsets)...\n");
  std::vector<ml::Dataset> datasets;  // [0] = micro, [1..4] = subsets
  {
    auto scope = harness.scope("collect_samples");
    datasets.push_back(
        core::collect_training_data(ssd::ssd_a(), core::default_training_grid()));
    for (int s = 0; s < 4; ++s) {
      datasets.push_back(collect_subset(subsets[s], 100 * (s + 1)));
    }
    std::size_t samples = 0;
    for (const auto& d : datasets) samples += d.size();
    scope.items(samples);
  }

  std::pair<double, double> scores[4];
  {
    auto scope = harness.scope("crossval_fits");
    runner::SweepRunner pool;
    pool.run(4, [&](std::size_t hold_out) {
      ml::Dataset train = datasets[0];
      for (std::size_t s = 0; s < 4; ++s) {
        if (s != hold_out) train.append(datasets[s + 1]);
      }
      core::Tpm tpm;
      tpm.fit(train);
      scores[hold_out] = tpm.score(datasets[hold_out + 1]);
    });
    scope.items(4);
  }

  common::TextTable table({"Data Subset", "Accuracy (read)", "Accuracy (write)"});
  for (int hold_out = 0; hold_out < 4; ++hold_out) {
    table.add_row({subsets[hold_out].name, common::fmt(scores[hold_out].first),
                   common::fmt(scores[hold_out].second)});
  }
  table.print(std::cout);

  std::printf("\nPaper reference (Table III): 0.89 / 0.98 / 0.96 / 0.95\n");
  return 0;
}

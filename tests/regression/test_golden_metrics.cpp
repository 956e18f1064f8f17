// Golden-metric regression tests: run the reduced evaluation scenarios and
// compare their key metrics (throughputs, pause counts, final weight ratio,
// obs counters) against golden JSON snapshots under tests/regression/golden.
// Regenerate intentionally-changed goldens with:
//
//   SRC_UPDATE_GOLDEN=1 ctest -L regression
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "core/standalone.hpp"
#include "scenario.hpp"

namespace src::regression {
namespace {

obs::Json run_and_snapshot(core::ExperimentConfig config) {
  obs::ObsConfig obs_config;
  obs_config.tracing = false;  // goldens pin metrics, not trace streams
  obs::Observatory observatory(obs_config);
  config.observatory = &observatory;
  const core::ExperimentResult result = core::run_experiment(config);
  return experiment_snapshot(result, observatory);
}

TEST(GoldenMetrics, Fig5WeightSweep) {
  // Fig. 5: standalone weight-ratio sweep. The golden pins the monotone
  // read/write throughput trade-off at three representative weights.
  const workload::Trace trace = workload::generate_micro(
      workload::symmetric_micro(15.0, 32.0 * 1024, 1200), 7);
  obs::Json snap{obs::Json::Object{}};
  for (const std::uint32_t w : {1u, 4u, 16u}) {
    core::StandaloneOptions options;
    options.weight_ratio = w;
    options.horizon = core::arrival_horizon(trace);
    const core::StandaloneResult result =
        core::run_standalone(ssd::ssd_a(), trace, options);
    obs::Json point{obs::Json::Object{}};
    point.set("read_gbps", obs::Json{result.read_rate.as_gbps()});
    point.set("write_gbps", obs::Json{result.write_rate.as_gbps()});
    point.set("reads_completed", obs::Json{result.reads_completed});
    point.set("writes_completed", obs::Json{result.writes_completed});
    std::string key = "w";
    key += std::to_string(w);
    snap.set(key, std::move(point));
  }
  check_against_golden("fig5", snap);
}

// The TPM training set: every (trace, w) cell of a reduced default grid
// replayed on the standalone SSD + SSQ rig. The digest is FNV-1a over the
// feature matrix followed by each row's (read, write) labels, so any change
// to the storage replay path that moves one completion instant shows here.
TEST(GoldenMetrics, TrainingDatasetDigest) {
  const ml::Dataset data = core::collect_training_data(
      ssd::ssd_a(), core::default_training_grid(600, 11));
  ASSERT_EQ(data.size(), 480u);
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  };
  for (const double x : data.features()) mix(x);
  for (std::size_t i = 0; i < data.size(); ++i) {
    mix(data.target(i, 0));
    mix(data.target(i, 1));
  }
  EXPECT_EQ(h, 7557163742650254348ull);
}

// The default forest TPM fitted on that same training set: FNV-1a over the
// text Tpm::save_file writes (every threshold, leaf and importance at
// max_digits10), so a change to the split search that moves one tree shows.
TEST(GoldenMetrics, TpmForestDigest) {
  const ml::Dataset data = core::collect_training_data(
      ssd::ssd_a(), core::default_training_grid(600, 11));
  core::Tpm tpm;
  tpm.fit(data);
  const std::string path = ::testing::TempDir() + "/golden_forest.tpm";
  tpm.save_file(path);
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 10917527274979092690ull);
}

TEST(GoldenMetrics, Fig7VdiDcqcnOnly) {
  check_against_golden("fig7", run_and_snapshot(fig7_reduced()));
}

TEST(GoldenMetrics, Table4Incast) {
  check_against_golden("table4", run_and_snapshot(table4_reduced()));
}

// The comparator itself must fail loudly: a >1% throughput perturbation has
// to surface as a named metric-level diff (this is what protects the suite
// from silently-widened tolerances).
TEST(GoldenComparator, FlagsThroughputPerturbationAboveOnePercent) {
  obs::Json golden{obs::Json::Object{}};
  golden.set("read_gbps", obs::Json{2.0});
  golden.set("total_pauses", obs::Json{std::uint64_t{41}});

  obs::Json perturbed{obs::Json::Object{}};
  perturbed.set("read_gbps", obs::Json{2.0 * 1.015});  // +1.5%
  perturbed.set("total_pauses", obs::Json{std::uint64_t{41}});

  const auto diffs = compare_snapshots(golden, perturbed);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("read_gbps"), std::string::npos);
  EXPECT_NE(diffs[0].find("golden 2"), std::string::npos);

  // Within tolerance: no diff.
  obs::Json close{obs::Json::Object{}};
  close.set("read_gbps", obs::Json{2.0 * 1.001});  // +0.1%
  close.set("total_pauses", obs::Json{std::uint64_t{41}});
  EXPECT_TRUE(compare_snapshots(golden, close).empty());

  // Counts are exact: off-by-one pause count is a diff.
  obs::Json off_by_one{obs::Json::Object{}};
  off_by_one.set("read_gbps", obs::Json{2.0});
  off_by_one.set("total_pauses", obs::Json{std::uint64_t{42}});
  const auto count_diffs = compare_snapshots(golden, off_by_one);
  ASSERT_EQ(count_diffs.size(), 1u);
  EXPECT_NE(count_diffs[0].find("total_pauses"), std::string::npos);
}

}  // namespace
}  // namespace src::regression

// Lane-count invariance: the sharded lane engine must produce bit-identical
// results no matter how many worker threads execute the shard decomposition
// (DESIGN.md §14). Two existing star presets and the pod-grammar preset run
// at lanes 1 / 2 / 4 and compare full snapshots as bytes — not tolerances —
// and the pod snapshot is additionally pinned against a committed golden so
// cross-version drift is caught even when all lane counts drift together.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario.hpp"

namespace src::regression {
namespace {

/// Run a star preset on the lane engine (lanes >= 1) and snapshot it.
/// Note lanes=0 (the classic single-kernel engine) is intentionally NOT in
/// the comparison set: the lane engine merges cross-shard deliveries at
/// window boundaries in (when, src, seq) order, which is a different —
/// equally deterministic — tie order than the classic global calendar's.
std::string star_snapshot_at(const std::string& preset, const core::Tpm* tpm,
                             std::size_t lanes) {
  scenario::ScenarioSpec spec = scenario::preset_spec(preset);
  spec.src.tpm.source = "none";  // the pointer below supplies the model
  spec.lanes = lanes;
  scenario::BuildOptions options;
  options.tpm = tpm;
  core::ExperimentConfig config = scenario::build(spec, options).config;

  obs::ObsConfig obs_config;
  obs_config.tracing = false;
  obs::Observatory observatory(obs_config);
  config.observatory = &observatory;
  const core::ExperimentResult result = core::run_experiment(config);
  return experiment_snapshot(result, observatory).dump(2);
}

TEST(LaneDeterminism, Fig7ReducedIsLaneCountInvariant) {
  const std::string one = star_snapshot_at("fig7-reduced", nullptr, 1);
  for (const std::size_t lanes : {2u, 4u}) {
    EXPECT_EQ(star_snapshot_at("fig7-reduced", nullptr, lanes), one)
        << "fig7-reduced drifted at lanes=" << lanes;
  }
}

TEST(LaneDeterminism, Table4ReducedIsLaneCountInvariant) {
  const core::Tpm* tpm = &shared_tpm();
  const std::string one = star_snapshot_at("table4-reduced", tpm, 1);
  for (const std::size_t lanes : {2u, 4u}) {
    EXPECT_EQ(star_snapshot_at("table4-reduced", tpm, lanes), one)
        << "table4-reduced drifted at lanes=" << lanes;
  }
}

TEST(LaneDeterminism, PodIncastSnapshotIsLaneCountInvariantAndPinned) {
  auto run_at = [](std::size_t lanes) {
    scenario::ScenarioSpec spec = scenario::preset_spec("pod-incast-reduced");
    spec.lanes = lanes;
    return scenario::run_pod(spec);
  };
  const core::PodExperimentResult serial = run_at(1);
  const std::string one = serial.snapshot();
  EXPECT_GT(serial.windows, 0u);
  for (const std::size_t lanes : {2u, 4u}) {
    const core::PodExperimentResult result = run_at(lanes);
    EXPECT_EQ(result.snapshot(), one)
        << "pod-incast-reduced drifted at lanes=" << lanes;
    // The window sequence is a function of the simulated timeline only.
    EXPECT_EQ(result.windows, serial.windows)
        << "pod-incast-reduced window count drifted at lanes=" << lanes;
  }

  // Golden pin (text, integer-only): regenerate with SRC_UPDATE_GOLDEN=1.
  const std::string path =
      std::string(SRC_GOLDEN_DIR) + "/pod-incast-snapshot.txt";
  if (update_golden()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << one;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — regenerate with SRC_UPDATE_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(one, buffer.str())
      << "pod-incast-reduced drifted from the committed golden. If the "
         "change is intentional, regenerate with SRC_UPDATE_GOLDEN=1.";
}

}  // namespace
}  // namespace src::regression

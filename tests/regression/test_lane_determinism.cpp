// Lane-count invariance: the sharded lane engine must produce bit-identical
// results no matter how many worker threads execute the shard decomposition
// (DESIGN.md §14). Two existing star presets and the pod-grammar preset run
// at lanes 1 / 2 / 4 and compare full snapshots, metrics and traces as
// bytes — not tolerances — and the pod snapshot is additionally pinned
// against a committed golden so cross-version drift is caught even when
// all lane counts drift together. The one-shard plan (lanes=0) is not
// compared: besides its tie order (below), its end time is the last
// event's, while LaneGroup::now() at lanes >= 1 is the largest shard
// clock, and a drained hub shard's clock has jumped to the slice deadline
// (fig9 ends at 149.992996 ms on one shard, 150 ms on two).
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario.hpp"

namespace src::regression {
namespace {

/// Run a star preset on the hosts | hub shard plan (lanes >= 1) and
/// snapshot it: results and counters, then the whole metrics and trace
/// JSON. Note lanes=0 (the one-shard plan) is intentionally NOT in the
/// comparison set: the two-shard plan merges cross-shard deliveries at
/// window boundaries in (when, src, seq) order, which is a different —
/// equally deterministic — tie order than one calendar's.
std::string star_snapshot_at(const std::string& preset, const core::Tpm* tpm,
                             std::size_t lanes) {
  scenario::ScenarioSpec spec = scenario::preset_spec(preset);
  spec.src.tpm.source = "none";  // the pointer below supplies the model
  spec.lanes = lanes;
  scenario::BuildOptions options;
  options.tpm = tpm;
  core::ExperimentConfig config = scenario::build(spec, options).config;

  obs::Observatory observatory;
  config.observatory = &observatory;
  const core::ExperimentResult result = core::run_experiment(config);
  const obs::Json snapshot = experiment_snapshot(result, observatory);
#if !defined(SRC_OBS_DISABLE)
  // Lanes record: the counters compared here must not be empty.
  EXPECT_GT(snapshot.find("counters")->as_object().size(), 0u) << preset;
  EXPECT_GT(observatory.tracer().recorded(), 0u) << preset;
#endif
  return snapshot.dump(2) + observatory.metrics_json() + observatory.trace_json();
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
  // The result, plus the metrics and trace JSON the lanes recorded.
  struct Run {
    core::PodExperimentResult result;
    std::string observed;
  };
  auto run_at = [](std::size_t lanes) {
    scenario::ScenarioSpec spec = scenario::preset_spec("pod-incast-reduced");
    spec.lanes = lanes;
    obs::Observatory observatory;
    scenario::BuildOptions options;
    options.observatory = &observatory;
    Run run{core::run_pod_experiment(scenario::build_pod(spec, options)), ""};
    run.observed = observatory.metrics_json() + observatory.trace_json();
    return run;
  };
  const Run serial = run_at(1);
  const std::string one = serial.result.snapshot();
  EXPECT_GT(serial.result.windows, 0u);
#if !defined(SRC_OBS_DISABLE)
  EXPECT_NE(serial.observed.find("\"net."), std::string::npos)
      << "the pod lanes recorded no network metrics";
#endif
  for (const std::size_t lanes : {2u, 4u}) {
    const Run run = run_at(lanes);
    EXPECT_EQ(run.result.snapshot(), one)
        << "pod-incast-reduced drifted at lanes=" << lanes;
    EXPECT_EQ(run.observed, serial.observed)
        << "pod-incast-reduced metrics or trace drifted at lanes=" << lanes;
    // The window sequence is a function of the simulated timeline only.
    EXPECT_EQ(run.result.windows, serial.result.windows)
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

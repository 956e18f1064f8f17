// Golden equivalence between the two ways a preset can run: built directly
// from its C++ spec builder (scenario::vdi_spec & friends) versus
// serialized to a src-scenario-v1 manifest, re-parsed, and built from the
// parsed spec. The
// comparison is the full experiment snapshot compared as bytes — exact
// counters, not tolerances — so any field the serializer drops or the
// parser defaults differently shows up as a metric diff, and the manifest
// path also has to match the committed goldens.
#include <gtest/gtest.h>

#include "scenario.hpp"
#include "scenario/serialize.hpp"

namespace src::regression {
namespace {

obs::Json run_config_snapshot(core::ExperimentConfig config) {
  obs::ObsConfig obs_config;
  obs_config.tracing = false;
  obs::Observatory observatory(obs_config);
  config.observatory = &observatory;
  const core::ExperimentResult result = core::run_experiment(config);
  return experiment_snapshot(result, observatory);
}

/// Serialize -> parse -> build -> run, with `tpm` standing in for the
/// spec's tpm source (the regression suite trains exactly one model).
obs::Json run_via_json(const std::string& preset, const core::Tpm* tpm) {
  const scenario::ScenarioSpec spec = scenario::preset_spec(preset);
  const scenario::ScenarioSpec reparsed =
      scenario::parse_scenario(scenario::to_json_text(spec), preset + ".json");
  EXPECT_TRUE(reparsed == spec) << preset << ": spec drifted across JSON";
  scenario::BuildOptions options;
  options.tpm = tpm;
  return run_config_snapshot(scenario::build(reparsed, options).config);
}

TEST(ScenarioEquivalence, Fig7ManifestRunIsBitIdentical) {
  const obs::Json via_json = run_via_json("fig7-reduced", nullptr);
  EXPECT_EQ(via_json.dump(), run_config_snapshot(fig7_reduced()).dump());
  check_against_golden("fig7", via_json);
}

TEST(ScenarioEquivalence, Fig9SrcManifestRunIsBitIdentical) {
  const obs::Json via_json = run_via_json("fig9-reduced", &shared_tpm());
  EXPECT_EQ(via_json.dump(), run_config_snapshot(fig9_reduced()).dump());
}

TEST(ScenarioEquivalence, Table4ManifestRunIsBitIdentical) {
  const obs::Json via_json = run_via_json("table4-reduced", &shared_tpm());
  EXPECT_EQ(via_json.dump(), run_config_snapshot(table4_reduced()).dump());
  check_against_golden("table4", via_json);
}

}  // namespace
}  // namespace src::regression

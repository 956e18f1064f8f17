// Property sweeps over the end-to-end experiment driver: conservation,
// determinism and sanity across presets and fabric shapes. These are the
// repo's broadest invariants — every subsystem participates.
#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"

namespace src::core {
namespace {

enum class Preset { kVdi, kLight, kModerate, kHeavy, kIncast21, kIncast42 };

std::string preset_name(const ::testing::TestParamInfo<Preset>& info) {
  switch (info.param) {
    case Preset::kVdi: return "Vdi";
    case Preset::kLight: return "Light";
    case Preset::kModerate: return "Moderate";
    case Preset::kHeavy: return "Heavy";
    case Preset::kIncast21: return "Incast2to1";
    case Preset::kIncast42: return "Incast4to2";
  }
  return "?";
}

scenario::ScenarioSpec spec_of(Preset preset, bool use_src) {
  using scenario::Intensity;
  switch (preset) {
    case Preset::kVdi: return scenario::vdi_spec(use_src);
    case Preset::kLight:
      return scenario::intensity_spec(Intensity::kLight, use_src);
    case Preset::kModerate:
      return scenario::intensity_spec(Intensity::kModerate, use_src);
    case Preset::kHeavy:
      return scenario::intensity_spec(Intensity::kHeavy, use_src);
    case Preset::kIncast21: return scenario::incast_spec(2, 1, use_src);
    case Preset::kIncast42: return scenario::incast_spec(4, 2, use_src);
  }
  throw std::logic_error("unreachable");
}

ExperimentConfig build(Preset preset, bool use_src, const Tpm* tpm) {
  return scenario::build(spec_of(preset, use_src), {.tpm = tpm}).config;
}

class ExperimentPropertyTest : public ::testing::TestWithParam<Preset> {
 protected:
  static void SetUpTestSuite() { tpm_ = new Tpm(train_default_tpm(ssd::ssd_a())); }
  static void TearDownTestSuite() {
    delete tpm_;
    tpm_ = nullptr;
  }
  static Tpm* tpm_;

  static ExperimentConfig shortened(ExperimentConfig config) {
    config.max_time = 60 * common::kMillisecond;
    return config;
  }
};

Tpm* ExperimentPropertyTest::tpm_ = nullptr;

TEST_P(ExperimentPropertyTest, RatesAreFiniteAndBounded) {
  for (const bool use_src : {false, true}) {
    const auto result = run_experiment(
        shortened(build(GetParam(), use_src, use_src ? tpm_ : nullptr)));
    EXPECT_GE(result.read_rate.as_gbps(), 0.0);
    EXPECT_GE(result.write_rate.as_gbps(), 0.0);
    // Bounded by the total fabric capacity (targets * link both ways).
    EXPECT_LT(result.aggregate_rate().as_gbps(), 100.0);
    EXPECT_GT(result.reads_completed + result.writes_completed, 0u);
  }
}

TEST_P(ExperimentPropertyTest, DeterministicAcrossRuns) {
  const auto a = run_experiment(shortened(build(GetParam(), true, tpm_)));
  const auto b = run_experiment(shortened(build(GetParam(), true, tpm_)));
  EXPECT_DOUBLE_EQ(a.read_rate.as_bytes_per_second(), b.read_rate.as_bytes_per_second());
  EXPECT_DOUBLE_EQ(a.write_rate.as_bytes_per_second(), b.write_rate.as_bytes_per_second());
  EXPECT_EQ(a.total_cnps, b.total_cnps);
  EXPECT_EQ(a.adjustments.size(), b.adjustments.size());
}

TEST_P(ExperimentPropertyTest, SrcAdjustmentsOnlyInSrcMode) {
  const auto baseline = run_experiment(shortened(build(GetParam(), false, nullptr)));
  EXPECT_TRUE(baseline.adjustments.empty());
}

TEST_P(ExperimentPropertyTest, TimelinesCoverTheRun) {
  const auto result = run_experiment(shortened(build(GetParam(), false, nullptr)));
  EXPECT_GT(result.read_timeline.bin_count(), 0u);
  EXPECT_GT(result.write_timeline.bin_count(), 0u);
  // extend_to ran: both span the same horizon.
  EXPECT_EQ(result.read_timeline.bin_count(), result.write_timeline.bin_count());
}

INSTANTIATE_TEST_SUITE_P(AllPresets, ExperimentPropertyTest,
                         ::testing::Values(Preset::kVdi, Preset::kLight,
                                           Preset::kModerate, Preset::kHeavy,
                                           Preset::kIncast21, Preset::kIncast42),
                         preset_name);

}  // namespace
}  // namespace src::core

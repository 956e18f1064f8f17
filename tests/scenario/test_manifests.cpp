// Every checked-in manifest under examples/scenarios must parse, and its
// native re-serialization must be a fixed point of parse + serialize, so
// the shipped examples can never drift from what the schema accepts. A
// manifest named after a preset must also be that preset's dump, so
// `srcctl run <manifest>` runs the scenario the preset describes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "scenario/presets.hpp"
#include "scenario/serialize.hpp"

namespace src::scenario {
namespace {

/// The manifests' file stems; the parameter is the stem, not the path, so
/// test names do not depend on where the tree is checked out.
std::vector<std::string> manifest_stems() {
  std::vector<std::string> stems;
  for (const auto& entry : std::filesystem::directory_iterator(SRC_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") stems.push_back(entry.path().stem().string());
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

class CheckedInManifest : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckedInManifest, ParsesAndReserializesToAFixedPoint) {
  const std::string path =
      (std::filesystem::path(SRC_SCENARIO_DIR) / (GetParam() + ".json")).string();
  const ScenarioSpec spec = load_scenario_file(path);
  const std::string text = to_json_text(spec);
  const ScenarioSpec reparsed = parse_scenario(text, path);
  EXPECT_TRUE(reparsed == spec) << path << ": spec drifted across JSON";
  EXPECT_EQ(to_json_text(reparsed), text)
      << path << ": re-serialization is not byte-identical";

  // fig9.json is `srcctl scenarios fig9`, pod_incast.json is
  // `srcctl scenarios pod-incast`, and so on.
  std::string preset = GetParam();
  std::replace(preset.begin(), preset.end(), '_', '-');
  if (preset_registry().find(preset) == nullptr) return;
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(file, to_json_text(preset_spec(preset)))
      << path << ": differs from preset " << preset;
}

INSTANTIATE_TEST_SUITE_P(
    Examples, CheckedInManifest, ::testing::ValuesIn(manifest_stems()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      const auto not_alnum = [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c));
      };
      std::replace_if(name.begin(), name.end(), not_alnum, '_');
      return name;
    });

}  // namespace
}  // namespace src::scenario

// Every checked-in manifest under examples/scenarios must parse, and its
// native re-serialization must be a fixed point of parse + serialize, so
// the shipped examples can never drift from what the schema accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/serialize.hpp"

namespace src::scenario {
namespace {

std::vector<std::string> manifest_paths() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(SRC_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

class CheckedInManifest : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckedInManifest, ParsesAndReserializesToAFixedPoint) {
  const ScenarioSpec spec = load_scenario_file(GetParam());
  const std::string text = to_json_text(spec);
  const ScenarioSpec reparsed = parse_scenario(text, GetParam());
  EXPECT_TRUE(reparsed == spec) << GetParam() << ": spec drifted across JSON";
  EXPECT_EQ(to_json_text(reparsed), text)
      << GetParam() << ": re-serialization is not byte-identical";
}

INSTANTIATE_TEST_SUITE_P(
    Examples, CheckedInManifest, ::testing::ValuesIn(manifest_paths()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = std::filesystem::path(param_info.param).stem().string();
      const auto not_alnum = [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c));
      };
      std::replace_if(name.begin(), name.end(), not_alnum, '_');
      return name;
    });

}  // namespace
}  // namespace src::scenario

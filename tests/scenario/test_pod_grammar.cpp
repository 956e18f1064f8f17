// The declarative pod topology grammar (`topology.kind: "pod"`): strict
// schema validation with `file:$.topology.*` diagnostics, lossless round
// trips, and the byte-stability guarantee that star manifests do not grow
// the new keys.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "scenario/serialize.hpp"

namespace src::scenario {
namespace {

/// EXPECT that evaluating `expr` throws std::runtime_error whose message
/// contains `fragment` (the `file:$.path: why` diagnostic contract).
template <typename F>
void expect_parse_error(F&& expr, const std::string& fragment) {
  try {
    expr();
    ADD_FAILURE() << "expected a parse error mentioning: " << fragment;
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find(fragment), std::string::npos)
        << "error was: " << err.what();
  }
}

/// A minimal valid pod manifest (2 pods x 2 racks x 16 hosts default) with
/// splice points for overrides: the fragments are inserted verbatim into
/// the topology.pod block / the top level, so each test states only what
/// it breaks.
std::string pod_manifest(const std::string& pod_extra = "",
                         const std::string& top_extra = "") {
  return R"({"schema": "src-scenario-v1",
             "name": "pod-fixture",
             "workloads": [{"kind": "micro"}],
             "topology": {"kind": "pod",
                          "initiators": 4, "targets": 4,
                          "pod": {"pods": 2, "racks_per_pod": 2)" +
         (pod_extra.empty() ? "" : ", " + pod_extra) + R"(}})" +
         (top_extra.empty() ? "" : ", " + top_extra) + "}";
}

TEST(PodGrammar, MinimalManifestParsesWithDefaults) {
  const ScenarioSpec spec = parse_scenario(pod_manifest(), "pod.json");
  EXPECT_EQ(spec.topology.kind, "pod");
  EXPECT_EQ(spec.topology.pod.pods, 2u);
  EXPECT_EQ(spec.topology.pod.hosts_per_rack, 16u);
  EXPECT_EQ(spec.topology.pod.partition, "rack");
  EXPECT_EQ(spec.topology.pod.stripe_width, 1u);
  EXPECT_DOUBLE_EQ(spec.topology.pod.oversubscription, 1.0);
  EXPECT_EQ(spec.lanes, 0u);
}

TEST(PodGrammar, RoundTripIsLossless) {
  const ScenarioSpec spec = parse_scenario(
      pod_manifest(R"("oversubscription": 4.0, "partition": "pod",
                      "stripe_width": 2, "spine_uplink_delay_us": 3)",
                   R"("lanes": 3)"),
      "pod.json");
  EXPECT_EQ(spec.lanes, 3u);
  const std::string text = to_json_text(spec);
  const ScenarioSpec reparsed = parse_scenario(text, "pod.json");
  EXPECT_TRUE(reparsed == spec) << "pod spec drifted across JSON";
  EXPECT_EQ(to_json_text(reparsed), text)
      << "pod re-serialization is not byte-identical";
}

TEST(PodGrammar, StarManifestsStayByteStable) {
  // The new keys are emitted only when they differ from their defaults, so
  // every pre-existing star manifest round-trips byte-identically.
  // ("kind" alone would also match the workload entries' kind key.)
  const std::string text = to_json_text(preset_spec("fig7-reduced"));
  EXPECT_EQ(text.find("\"kind\": \"star\""), std::string::npos);
  EXPECT_EQ(text.find("\"pod\""), std::string::npos);
  EXPECT_EQ(text.find("\"lanes\""), std::string::npos);
}

TEST(PodGrammar, UnknownKeysAreRejectedWithFullPath) {
  expect_parse_error(
      [] { parse_scenario(pod_manifest(R"("racks": 3)"), "pod.json"); },
      "pod.json:$.topology.pod.racks: unknown key");
  expect_parse_error(
      [] {
        parse_scenario(
            R"({"schema": "src-scenario-v1",
                "workloads": [{"kind": "micro"}],
                "topology": {"kind": "star",
                             "pod": {"pods": 2}}})",
            "star.json");
      },
      "star.json:$.topology.pod: payload does not match kind 'star'");
  expect_parse_error(
      [] {
        parse_scenario(
            R"({"schema": "src-scenario-v1",
                "workloads": [{"kind": "micro"}],
                "topology": {"kind": "mesh"}})",
            "mesh.json");
      },
      "mesh.json:$.topology.kind: unknown topology kind 'mesh'");
}

TEST(PodGrammar, RangeDiagnosticsCarryFileAndPath) {
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest(R"("oversubscription": 0)"), "pod.json");
      },
      "pod.json:$.topology.pod.oversubscription: must be > 0 (got 0)");
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest(R"("hosts_per_rack": 0)"), "pod.json");
      },
      "pod.json:$.topology.pod.hosts_per_rack: must be >= 1 (got 0)");
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest(R"("partition": "hypercube")"),
                       "pod.json");
      },
      "pod.json:$.topology.pod.partition: unknown partition policy "
      "'hypercube'");
  // Conservative sync needs a positive cross-shard delay on every link the
  // partition cuts.
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest(R"("rack_uplink_delay_ns": 0)"),
                       "pod.json");
      },
      "pod.json:$.topology.pod.rack_uplink_delay_ns: must be >= 1 under "
      "partition 'rack'");
  // Sugared keys are reported as written.
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest(R"("spine_uplink_delay_us": 0)"),
                       "pod.json");
      },
      "pod.json:$.topology.pod.spine_uplink_delay_us: must be >= 1 under "
      "partition 'rack'");
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest(R"("host_rate_gbps": 0)"), "pod.json");
      },
      "pod.json:$.topology.pod.host_rate_gbps: must be > 0");
}

TEST(PodGrammar, CrossFieldValidationAnchorsTheOffendingKey) {
  // Lane count beyond the partition's shard count: 2 pods x 2 racks under
  // "rack" yields 4 rack + 2 agg + 1 spine = 7 shards.
  expect_parse_error(
      [] { parse_scenario(pod_manifest("", R"("lanes": 8)"), "pod.json"); },
      "pod.json:$.lanes: lane count 8 exceeds the 7 shards");
  // More endpoints than the grammar provides hosts.
  expect_parse_error(
      [] {
        parse_scenario(
            pod_manifest(R"("hosts_per_rack": 1)",
                         R"("lanes": 1)"),
            "pod.json");
      },
      "pod.json:$.topology.initiators: 4 initiators + 4 targets exceed the "
      "grammar's 4 hosts");
  // Striping wider than the target set is dead config.
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest(R"("stripe_width": 5)"), "pod.json");
      },
      "pod.json:$.topology.pod.stripe_width: stripe_width 5 exceeds the 4 "
      "targets");
  // Star scenarios have exactly two shards, so lanes caps at 2 there.
  expect_parse_error(
      [] {
        parse_scenario(
            R"({"schema": "src-scenario-v1",
                "workloads": [{"kind": "micro"}],
                "lanes": 3})",
            "star.json");
      },
      "star.json:$.lanes: star scenarios run at most 2 lanes");
}

TEST(PodGrammar, PodSpecsRejectStarOnlyBlocks) {
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest("", R"("src": {"enabled": true})"),
                       "pod.json");
      },
      "pod.json:$.src.enabled: pod scenarios do not support SRC");
  expect_parse_error(
      [] {
        parse_scenario(pod_manifest("", R"("retry": {"enabled": true})"),
                       "pod.json");
      },
      "pod.json:$.retry.enabled: pod scenarios do not support initiator "
      "retry policies");
}

TEST(PodGrammar, BuildDispatchIsKindChecked) {
  const ScenarioSpec pod = parse_scenario(pod_manifest(), "pod.json");
  EXPECT_THROW(build(pod), std::invalid_argument);
  const ScenarioSpec star = preset_spec("fig7-reduced");
  EXPECT_THROW(build_pod(star), std::invalid_argument);
  // And the matching entry point resolves cleanly.
  const core::PodExperimentConfig config = build_pod(pod);
  EXPECT_EQ(config.grammar.pods, 2u);
  EXPECT_EQ(config.initiator_count, 4u);
  EXPECT_EQ(config.lanes, 1u);  // lanes 0 -> serial lane engine
}

TEST(ScenarioRun, PodSpecMatchesPodRunner) {
  // scenario::run is the front door for both topology kinds: a pod spec
  // reports the pod runner's outcome as an ExperimentResult, unchanged.
  for (const std::size_t lanes : {1u, 4u}) {
    ScenarioSpec spec = preset_spec("pod-incast-reduced");
    spec.lanes = lanes;
    const core::ExperimentResult via_run = run(spec);
    const core::PodExperimentResult pod =
        core::run_pod_experiment(build_pod(spec));
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    EXPECT_EQ(via_run.reads_completed, pod.reads_completed);
    EXPECT_EQ(via_run.writes_completed, pod.writes_completed);
    EXPECT_EQ(via_run.total_pauses, pod.total_pauses);
    EXPECT_EQ(via_run.events_executed, pod.events_executed);
    EXPECT_EQ(via_run.cross_shard_messages, pod.cross_shard_messages);
    EXPECT_EQ(via_run.end_time, pod.end_time);
    EXPECT_EQ(via_run.completed, pod.completed);
    EXPECT_EQ(via_run.read_rate.as_bytes_per_second(),
              pod.read_rate().as_bytes_per_second());
    EXPECT_EQ(via_run.per_initiator_read_rate.size(),
              pod.per_initiator_read_bytes.size());
    EXPECT_EQ(via_run.final_weight_ratio(), 1u);
    EXPECT_GT(via_run.reads_completed, 0u);
  }
}

}  // namespace
}  // namespace src::scenario

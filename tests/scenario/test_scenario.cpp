// The declarative scenario layer: every preset must survive a JSON round
// trip losslessly (spec equality AND byte-identical re-serialization), the
// strict parser must reject typos/bad ranges with `file:$.path.key`
// diagnostics, unit sugar must normalize to the native `_ns` /
// `_bytes_per_sec` spellings, and the component registries must fail
// lookups by listing the known names.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "scenario/registry.hpp"
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

TEST(SpecRoundTrip, EveryPresetIsLossless) {
  for (const std::string& name : preset_registry().names()) {
    const ScenarioSpec spec = preset_spec(name);
    const std::string text = to_json_text(spec);
    const ScenarioSpec reparsed = parse_scenario(text, name + ".json");
    EXPECT_TRUE(reparsed == spec) << name << ": spec drifted across JSON";
    EXPECT_EQ(to_json_text(reparsed), text)
        << name << ": re-serialization is not byte-identical";
  }
}

TEST(SpecRoundTrip, FaultPlanTraceWorkloadAndTpmFileSurvive) {
  // A spec exercising every optional block the presets leave empty.
  ScenarioSpec spec;
  spec.name = "kitchen-sink";
  spec.description = "every optional block populated";
  spec.driver = "ssq";
  spec.net.cc_algorithm = cc_registry().at("dctcp");
  spec.retry.enabled = true;

  WorkloadSpec workload;
  workload.kind = "trace-file";
  workload.trace_path = "traces/replay.csv";
  workload.seed_stride = 7;
  spec.workloads.push_back(workload);

  spec.src.enabled = true;
  spec.src.tpm.source = "file";
  spec.src.tpm.path = "models/tpm.bin";

  fault::PacketDropFault drop;
  drop.node = 3;
  drop.port = -1;
  drop.start = 10 * common::kMillisecond;
  drop.end = 20 * common::kMillisecond;
  drop.probability = 0.25;
  spec.faults.packet_drops.push_back(drop);

  fault::DeviceOutageFault outage;
  outage.target = 1;
  outage.device = 0;
  outage.offline_at = 5 * common::kMillisecond;
  outage.online_at = 9 * common::kMillisecond;
  spec.faults.outages.push_back(outage);

  fault::TpmFault tpm_fault;
  tpm_fault.controller = 0;
  tpm_fault.start = 1 * common::kMillisecond;
  tpm_fault.end = 2 * common::kMillisecond;
  tpm_fault.kind = fault::TpmFaultKind::kHuge;
  spec.faults.tpm_faults.push_back(tpm_fault);

  const std::string text = to_json_text(spec);
  const ScenarioSpec reparsed = parse_scenario(text);
  EXPECT_TRUE(reparsed == spec);
  EXPECT_EQ(to_json_text(reparsed), text);
}

TEST(SpecParse, DiagnosticsCarryFileAndJsonPath) {
  // Unknown key: the misspelling is named with its full path.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "topology": {"initiatorz": 2}})",
                       "vdi.json");
      },
      "vdi.json:$.topology.initiatorz: unknown key");

  // Missing schema tag.
  expect_parse_error(
      [] { parse_scenario(R"({"workloads": [{"kind": "micro"}]})"); },
      "$.schema: missing");

  // Range check with the offending value echoed back.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "topology": {"initiators": 0}})");
      },
      "$.topology.initiators: must be >= 1 (got 0)");

  // A workload payload that does not match its kind is dead config.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro",
                                          "synthetic": {}}]})");
      },
      "$.workloads[0].synthetic: payload does not match kind 'micro'");

  // No workload at all.
  expect_parse_error(
      [] { parse_scenario(R"({"schema": "src-scenario-v1"})"); },
      "$.workloads: at least one workload is required");

  // Unknown registry names list the known ones.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "driver": "turbo"})");
      },
      "$.driver: unknown driver 'turbo' (known: auto, fifo, ssq)");

  // Two spellings of the same duration are ambiguous.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "max_time_ns": 1000, "max_time_ms": 1})");
      },
      "$.max_time_ns: give at most one of _ns/_us/_ms");

  // JSON-level syntax errors keep the file label.
  expect_parse_error([] { parse_scenario("{", "broken.json"); },
                     "broken.json: Json::parse:");

  // One-block inputs spliced into a minimal manifest: integer fields are
  // bounded by their C++ type instead of wrapping, and a failed check names
  // the key as the manifest spelled it (the native spelling when absent).
  const std::pair<const char*, const char*> cases[] = {
      {R"("ssd": {"queue_depth": 4294967296})",
       "$.ssd.queue_depth: must be <= 4294967295 (got 4294967296)"},
      {R"("net": {"mtu_bytes": 4294967296})",
       "$.net.mtu_bytes: must be <= 4294967295 (got 4294967296)"},
      {R"("ssd": {"drain_streams": 4294967296})",
       "$.ssd.drain_streams: must be <= 4294967295 (got 4294967296)"},
      {R"("net": {"dcqcn": {"fast_recovery_stages": 4294967296}})",
       "$.net.dcqcn.fast_recovery_stages: must be <= 4294967295"},
      {R"("src": {"params": {"max_weight_ratio": 4294967296}})",
       "$.src.params.max_weight_ratio: must be <= 4294967295"},
      {R"("retry": {"max_retries": 4294967296})",
       "$.retry.max_retries: must be <= 4294967295"},
      {R"("faults": {"packet_drops": [{"node": 1, "port": 2147483648}]})",
       "$.faults.packet_drops[0].port: must be <= 2147483647 (got 2147483648)"},
      {R"("max_time_us": 0)", "$.max_time_us: must be > 0"},
      {R"("topology": {"link_rate_gbps": 0})",
       "$.topology.link_rate_gbps: must be > 0"},
      {R"("src": {"params": {"prediction_window_ms": 0}})",
       "$.src.params.prediction_window_ms: must be > 0"},
      {R"("verify": {"poll_interval_us": 0})",
       "$.verify.poll_interval_us: must be > 0"},
      {R"("retry": {"enabled": true, "base_timeout_ms": 0})",
       "$.retry.base_timeout_ms: enabled retry needs"},
      {R"("retry": {"enabled": true, "max_timeout_ms": 1})",
       "$.retry.base_timeout_ns: enabled retry needs"},
  };
  for (const auto& [block, message] : cases) {
    expect_parse_error(
        [block] {
          parse_scenario(std::string(R"({"schema": "src-scenario-v1",
                                         "workloads": [{"kind": "micro"}], )") +
                         block + "}");
        },
        message);
  }
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro",
                             "micro": {"max_size_bytes": 4294967296}}]})");
      },
      "$.workloads[0].micro.max_size_bytes: must be <= 4294967295");
}

// Settings the simulator cannot run are refused while parsing, with the
// manifest path, instead of hanging the run (a zero DCQCN alpha timer
// re-arms itself at one instant for ever) or failing it from deep inside
// the network builder (a zero star link delay across the lane cut).
TEST(SpecParse, RefusesSettingsThatCannotRun) {
  const auto manifest = [](const std::string& fields) {
    return std::string(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}], )") +
           fields + "}";
  };
  expect_parse_error(
      [&] { parse_scenario(manifest(R"("net": {"dcqcn": {"alpha_timer_ns": 0}})"), "m.json"); },
      "m.json:$.net.dcqcn.alpha_timer_ns: must be > 0 (got 0)");
  expect_parse_error(
      [&] { parse_scenario(manifest(R"("net": {"dcqcn": {"alpha_timer_us": 0}})")); },
      "$.net.dcqcn.alpha_timer_us: must be > 0");
  expect_parse_error(
      [&] {
        parse_scenario(manifest(R"("lanes": 1, "topology": {"link_delay_ns": 0})"), "m.json");
      },
      "m.json:$.topology.link_delay_ns: must be >= 1 when lanes >= 1");
  expect_parse_error(
      [&] { parse_scenario(manifest(R"("lanes": 2, "topology": {"link_delay_us": 0})")); },
      "$.topology.link_delay_ns: must be >= 1 when lanes >= 1");

  // A zero rate timer ends recovery at line rate, and a one-shard star has
  // no cut: both still parse.
  EXPECT_EQ(parse_scenario(manifest(R"("net": {"dcqcn": {"rate_timer_ns": 0}})"))
                .net.dcqcn.rate_timer,
            0);
  EXPECT_EQ(parse_scenario(manifest(R"("topology": {"link_delay_ns": 0})")).topology.link_delay,
            0);
}

TEST(SpecParse, SugaredDurationsCannotOverflow) {
  // 1e20 ms is far past 2^53 ns; the sugared key is named as written.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "max_time_ms": 1e20})");
      },
      "$.max_time_ms: must be <= 2^53 ns (got 1e+20)");
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "topology": {"link_delay_us": 1e13}})");
      },
      "$.topology.link_delay_us: must be <= 2^53 ns");
  // The bound itself is accepted: 9007199254740.992 us is exactly 2^53 ns.
  const ScenarioSpec spec = parse_scenario(
      R"({"schema": "src-scenario-v1",
          "workloads": [{"kind": "micro"}],
          "max_time_us": 9007199254740})");
  EXPECT_EQ(spec.max_time, 9007199254740000);
}

TEST(SpecParse, UnitSugarNormalizesToNative) {
  const ScenarioSpec spec = parse_scenario(
      R"({"schema": "src-scenario-v1",
          "name": "sugar",
          "max_time_ms": 80,
          "topology": {"link_rate_gbps": 4.0, "link_delay_us": 1.0},
          "workloads": [{"kind": "micro"}]})");
  EXPECT_EQ(spec.max_time, 80 * common::kMillisecond);
  EXPECT_EQ(spec.topology.link_rate.as_bytes_per_second(),
            common::Rate::gbps(4.0).as_bytes_per_second());
  EXPECT_EQ(spec.topology.link_delay, common::kMicrosecond);
  // The serializer always emits the native spellings.
  const std::string text = to_json_text(spec);
  EXPECT_NE(text.find("\"max_time_ns\": 80000000"), std::string::npos);
  EXPECT_NE(text.find("\"link_rate_bytes_per_sec\""), std::string::npos);
  EXPECT_EQ(text.find("_ms\""), std::string::npos);
  EXPECT_EQ(text.find("_gbps\""), std::string::npos);
}

TEST(SpecParse, SsdPresetBaseWithFieldOverride) {
  const ScenarioSpec spec = parse_scenario(
      R"({"schema": "src-scenario-v1",
          "workloads": [{"kind": "micro"}],
          "ssd": {"preset": "SSD-B", "queue_depth": 512}})");
  ssd::SsdConfig want = ssd_registry().at("SSD-B")();
  want.queue_depth = 512;
  EXPECT_TRUE(spec.ssd == want);
}

TEST(Registries, LookupFailureListsKnownNames) {
  try {
    driver_registry().at("bogus");
    FAIL() << "unknown driver accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("known: auto, fifo, ssq"),
              std::string::npos)
        << err.what();
  }
  // names() is sorted (std::map) so help text and errors are deterministic.
  const std::vector<std::string> presets = preset_registry().names();
  EXPECT_TRUE(std::is_sorted(presets.begin(), presets.end()));
  EXPECT_EQ(presets.size(), 14u);
  // cc names round-trip through the reverse lookup used by the serializer.
  for (const std::string& cc : cc_registry().names()) {
    EXPECT_EQ(cc_name(cc_registry().at(cc)), cc);
  }
}

TEST(SpecRoundTrip, PerInitiatorCcSurvives) {
  ScenarioSpec spec;
  spec.name = "mixed-cc";
  spec.topology.initiators = 2;
  WorkloadSpec workload;
  workload.kind = "micro";
  spec.workloads.push_back(workload);
  spec.initiators.push_back(InitiatorSpec{"swift"});
  spec.initiators.push_back(InitiatorSpec{"cubic"});

  const std::string text = to_json_text(spec);
  EXPECT_NE(text.find("\"initiators\""), std::string::npos);
  const ScenarioSpec reparsed = parse_scenario(text, "mixed.json");
  EXPECT_TRUE(reparsed == spec) << "per-initiator cc drifted across JSON";
  EXPECT_EQ(to_json_text(reparsed), text);

  // No initiators block at all: the serializer omits the key entirely, so
  // pre-zoo manifests keep their exact bytes.
  ScenarioSpec plain;
  plain.workloads.push_back(workload);
  EXPECT_EQ(to_json_text(plain).find("\"initiators\": ["), std::string::npos);
}

TEST(SpecParse, InitiatorCcDiagnostics) {
  // Unknown controller names the offending entry and lists the known ones.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "topology": {"initiators": 2},
                           "initiators": [{"cc": "bbr"}, {"cc": "swift"}]})",
                       "mix.json");
      },
      "mix.json:$.initiators[0].cc: unknown congestion controller 'bbr' "
      "(known: cubic, dcqcn, dctcp, swift)");

  // Entry count must be 1 (shared) or one per topology initiator.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "topology": {"initiators": 3},
                           "initiators": [{"cc": "swift"}, {"cc": "cubic"}]})");
      },
      "$.initiators: need exactly 1 entry (shared) or one per initiator "
      "(3), got 2");

  // A non-string cc is a type error at the exact path.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "initiators": [{"cc": 7}]})");
      },
      "$.initiators[0].cc");

  // Unknown keys inside an initiator entry are rejected like anywhere else.
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "initiators": [{"cc": "swift", "weight": 2}]})");
      },
      "$.initiators[0].weight: unknown key");
}

TEST(Build, PerInitiatorCcResolvesAndReplicates) {
  ScenarioSpec spec;
  spec.topology.initiators = 3;
  WorkloadSpec workload;
  workload.kind = "micro";
  spec.workloads.push_back(workload);

  // No initiators block: build leaves the override list empty (every host
  // runs net.cc_algorithm).
  EXPECT_TRUE(build(spec).config.initiator_cc.empty());

  // One shared entry replicates across all initiators.
  spec.initiators.push_back(InitiatorSpec{"swift"});
  const std::vector<int> shared = build(spec).config.initiator_cc;
  const int swift = cc_registry().at("swift");
  EXPECT_EQ(shared, (std::vector<int>{swift, swift, swift}));

  // Per-initiator entries resolve independently; an empty cc falls back to
  // the spec-wide net algorithm.
  spec.initiators = {InitiatorSpec{"cubic"}, InitiatorSpec{}, InitiatorSpec{"swift"}};
  const std::vector<int> mixed = build(spec).config.initiator_cc;
  EXPECT_EQ(mixed, (std::vector<int>{cc_registry().at("cubic"),
                                     spec.net.cc_algorithm, swift}));

  // A mismatched count that bypassed the parser still fails at build time.
  spec.initiators = {InitiatorSpec{"swift"}, InitiatorSpec{"cubic"}};
  EXPECT_THROW(build(spec), std::invalid_argument);
}

TEST(Build, DriverPolicyResolvesThroughRegistry) {
  ScenarioSpec spec = preset_spec("fig7-reduced");
  // "auto" leaves the mode unset; the experiment derives it from use_src.
  EXPECT_FALSE(build(spec).config.driver_mode.has_value());
  spec.driver = "fifo";
  EXPECT_EQ(build(spec).config.driver_mode, fabric::DriverMode::kFifo);
  spec.driver = "ssq";
  EXPECT_EQ(build(spec).config.driver_mode, fabric::DriverMode::kSsq);
}

TEST(Build, SrcWithoutTpmSourceIsAnError) {
  ScenarioSpec spec = preset_spec("fig9-reduced");
  spec.src.tpm.source = "none";  // and no BuildOptions::tpm either
  EXPECT_THROW(build(spec), std::invalid_argument);
}

}  // namespace
}  // namespace src::scenario

// Parse-time cross-validation of the fault plan (every bad index or range
// must fail with a `$.faults.<family>[i].<field>` diagnostic instead of a
// std::out_of_range when the injector arms mid-build) and the verify
// block's serialization contract (omitted while default, lossless once
// touched, knobs range-checked).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

/// Minimal valid scenario (default topology: 1 initiator + 2 targets with
/// 1 device each, node 0 the hub) carrying the given faults block.
std::string with_faults(const std::string& faults_json) {
  return R"({"schema": "src-scenario-v1",
             "workloads": [{"kind": "micro"}],
             "faults": )" +
         faults_json + "}";
}

TEST(FaultValidation, NodeIndexOutOfRange) {
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"packet_drops": [{"node": 9, "end_ms": 1}]})"));
      },
      "$.faults.packet_drops[0].node: node 9 out of range");
}

TEST(FaultValidation, HostPortIndexOutOfRange) {
  // Hosts have exactly one port; only the hub fans out.
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"packet_drops": [{"node": 1, "port": 2, "end_ms": 1}]})"));
      },
      "$.faults.packet_drops[0].port: port 2 out of range");
}

TEST(FaultValidation, LinkDownPortAgainstHubFanOut) {
  // The hub (node 0) has one port per host: 3 here, so port 5 is bogus.
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"link_downs": [{"node": 0, "port": 5, "up_at_ms": 1}]})"));
      },
      "$.faults.link_downs[0].port: port 5 out of range");
}

TEST(FaultValidation, OutageTargetAndDeviceOutOfRange) {
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"outages": [{"target": 7, "device": 0, "online_at_ms": 1}]})"));
      },
      "$.faults.outages[0].target: target 7 out of range");
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"outages": [{"target": 0, "device": 5, "online_at_ms": 1}]})"));
      },
      "$.faults.outages[0].device: device 5 out of range");
}

TEST(FaultValidation, DropProbabilityMustBeAUnitInterval) {
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"packet_drops": [{"node": 1, "end_ms": 1,
                                  "probability": 1.5}]})"));
      },
      "$.faults.packet_drops[0].probability: must be in [0, 1] (got 1.5)");
}

TEST(FaultValidation, InvertedWindowIsRejected) {
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"outages": [{"target": 0, "device": 0,
                             "offline_at_ms": 5, "online_at_ms": 1}]})"));
      },
      "$.faults.outages[0].offline_at_ms: fault window must have start <= end");
}

TEST(FaultValidation, SignalLossTargetOutOfRange) {
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"signal_losses": [{"target": 4, "end_ms": 1}]})"));
      },
      "$.faults.signal_losses[0].target: target 4 out of range");
}

TEST(FaultValidation, TpmFaultsNeedAnSrcRun) {
  expect_parse_error(
      [] {
        parse_scenario(with_faults(
            R"({"tpm_faults": [{"controller": 0, "end_ms": 1}]})"));
      },
      "$.faults.tpm_faults[0].controller: tpm faults need src.enabled");
}

TEST(VerifyBlock, DefaultSpecEmitsNoVerifyKey) {
  ScenarioSpec spec;
  spec.name = "plain";
  WorkloadSpec workload;
  spec.workloads.push_back(workload);
  EXPECT_EQ(spec.verify, VerifySpec{});
  EXPECT_EQ(to_json_text(spec).find("\"verify\""), std::string::npos);
}

TEST(VerifyBlock, TouchedSpecRoundTripsLosslessly) {
  ScenarioSpec spec;
  spec.name = "watched";
  WorkloadSpec workload;
  spec.workloads.push_back(workload);
  spec.verify.enabled = true;
  spec.verify.liveness = false;
  spec.verify.poll_interval = 2 * common::kMillisecond;
  spec.verify.liveness_grace = 30 * common::kMillisecond;
  spec.verify.max_violations = 8;

  const std::string text = to_json_text(spec);
  EXPECT_NE(text.find("\"verify\""), std::string::npos);
  const ScenarioSpec reparsed = parse_scenario(text, "watched.json");
  EXPECT_TRUE(reparsed == spec);
  EXPECT_EQ(to_json_text(reparsed), text);
}

TEST(VerifyBlock, KnobsAreRangeChecked) {
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "verify": {"poll_interval_ns": 0}})");
      },
      "$.verify.poll_interval_ns: must be > 0");
  expect_parse_error(
      [] {
        parse_scenario(R"({"schema": "src-scenario-v1",
                           "workloads": [{"kind": "micro"}],
                           "verify": {"livenezz": true}})");
      },
      "$.verify.livenezz: unknown key");
}

}  // namespace
}  // namespace src::scenario

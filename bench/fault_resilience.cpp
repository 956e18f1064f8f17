// Fault-resilience scenario: examples/scenarios/faults.json — one initiator
// against a 4-device flash array at 10 Gbps while the fault injector drops
// 30% of the initiator uplink's packets 50-100 ms and takes device 1
// offline 80-140 ms.
//
// Three configurations, each the manifest run through scenario::run:
//  * healthy            — `faults` cleared and retry off (the baseline all
//                         other benches measure);
//  * faults, no retry   — `retry.enabled` cleared: requests caught by the
//                         drop window are lost, so the run cannot finish:
//                         this is the failure mode the timeout/retry path
//                         exists to fix;
//  * faults + retry     — the manifest as written: capped-exponential-
//                         backoff retransmission, every request reaches a
//                         terminal state.
//
// The faulted run executes twice and must produce identical counters (the
// subsystem's determinism contract). Exit 1 on a divergence or when the
// retry run leaves requests in flight.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "scenario/build.hpp"
#include "scenario/serialize.hpp"

using namespace src;

namespace {

struct Outcome {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t error_completions = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t rerouted = 0;
  double read_gbps = 0.0;
  double end_ms = 0.0;
  bool all_complete = false;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const scenario::ScenarioSpec& spec) {
  obs::Observatory observatory;
  const core::ExperimentResult r =
      scenario::run(spec, {.observatory = &observatory});
  const obs::Counter* drops =
      observatory.metrics().find_counter("net.port.packets_dropped");
  Outcome out;
  out.completed = r.reads_completed + r.writes_completed;
  out.failed = r.reads_failed + r.writes_failed;
  out.retries = r.retries;
  out.timeouts = r.timeouts;
  out.error_completions = r.error_completions;
  out.packets_dropped = drops == nullptr ? 0 : drops->value();
  out.rerouted = r.rerouted_requests;
  out.read_gbps = r.read_rate.as_gbps();
  out.end_ms = common::to_milliseconds(r.end_time);
  out.all_complete = r.completed;
  return out;
}

void add_row(common::TextTable& table, const char* label, const Outcome& o) {
  table.add_row({label, std::to_string(o.completed), std::to_string(o.failed),
                 std::to_string(o.retries), std::to_string(o.timeouts),
                 std::to_string(o.error_completions),
                 std::to_string(o.packets_dropped), std::to_string(o.rerouted),
                 common::fmt(o.read_gbps), common::fmt(o.end_ms),
                 o.all_complete ? "yes" : "NO"});
}

}  // namespace

int main() {
  const scenario::ScenarioSpec faulted =
      scenario::load_scenario_file(SRC_SCENARIO_DIR "/faults.json");
  std::printf("Fault resilience — NVMe-oF timeout/retry under injected faults\n");
  std::printf("(%s)\n\n", faulted.description.c_str());

  scenario::ScenarioSpec healthy = faulted;
  healthy.faults = {};
  healthy.retry.enabled = false;
  scenario::ScenarioSpec no_retry = faulted;
  no_retry.retry.enabled = false;

  const Outcome healthy_run = outcome_of(healthy);
  const Outcome no_retry_run = outcome_of(no_retry);
  const Outcome with_retry = outcome_of(faulted);
  const Outcome replay = outcome_of(faulted);

  common::TextTable table({"Configuration", "done", "failed", "retries",
                           "timeouts", "errcomp", "drops", "rerouted",
                           "read Gbps", "end ms", "terminated"});
  add_row(table, "healthy", healthy_run);
  add_row(table, "faults, no retry", no_retry_run);
  add_row(table, "faults + retry", with_retry);
  table.print(std::cout);

  std::printf("\nDeterminism: identical seeds -> identical runs: %s\n",
              with_retry == replay ? "PASS" : "FAIL");
  if (!(with_retry == replay)) return 1;
  if (!with_retry.all_complete) {
    std::printf("ERROR: faulted run with retry left requests in flight\n");
    return 1;
  }
  return 0;
}

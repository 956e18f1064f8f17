// Fault injection on the lane engine: faults.json with a second drop window
// on every port of the hub, which sits on shard 1 once lanes >= 1. Each
// shard draws drops from its own stream and reads its own clock, so five
// runs at two lanes must equal the run at one lane. `unit` label: the tsan
// job runs it, which also checks the per-shard streams for data races.
#include <gtest/gtest.h>

#include <string>

#include "obs/obs.hpp"
#include "scenario/build.hpp"
#include "scenario/serialize.hpp"

namespace src::fault {
namespace {

/// Every result counter the faults touch, plus the run's metrics.
std::string run_at(const scenario::ScenarioSpec& base, std::size_t lanes) {
  scenario::ScenarioSpec spec = base;
  spec.lanes = lanes;
  obs::ObsConfig obs_config;
  obs_config.tracing = false;
  obs::Observatory observatory(obs_config);
  scenario::BuildOptions options;
  options.observatory = &observatory;
  const core::ExperimentResult r = scenario::run(spec, options);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.retries, 0u);
  return "retries=" + std::to_string(r.retries) +
         " timeouts=" + std::to_string(r.timeouts) +
         " reads=" + std::to_string(r.reads_completed) +
         " writes=" + std::to_string(r.writes_completed) +
         " failed=" + std::to_string(r.reads_failed + r.writes_failed) +
         " rerouted=" + std::to_string(r.rerouted_requests) +
         " events=" + std::to_string(r.events_executed) +
         " end=" + std::to_string(r.end_time) + "\n" +
         observatory.metrics_json();
}

TEST(FaultLanes, HubAndHostDropsAreLaneCountInvariant) {
  scenario::ScenarioSpec spec =
      scenario::load_scenario_file(std::string(SRC_SCENARIO_DIR) + "/faults.json");
  ASSERT_EQ(spec.faults.packet_drops.size(), 1u);
  PacketDropFault hub = spec.faults.packet_drops.front();
  hub.node = 0;  // the hub
  hub.port = -1;
  spec.faults.packet_drops.push_back(hub);

  const std::string one = run_at(spec, 1);
#if !defined(SRC_OBS_DISABLE)
  EXPECT_NE(one.find("\"net.port.packets_dropped\""), std::string::npos);
#endif
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(run_at(spec, 2), one) << "run " << run << " at lanes=2";
  }
}

}  // namespace
}  // namespace src::fault

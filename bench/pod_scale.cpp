// Pod-scale parallel-simulation sweep: the pod-grammar in-cast (mixed
// DCQCN/Swift/Cubic initiators striping reads over tail-pod targets across
// oversubscribed rack and spine uplinks) on a 512-host topology, executed
// by the sharded lane engine at increasing lane (thread) counts.
//
// Per (incast-degree, lane-count) point, one timed section reports
// events/sec — the parallel-simulation payoff metric. The simulated event
// counts are lane-count invariant by construction (the bench asserts the
// full result snapshot, not just the count), so `srcctl benchdiff` against
// bench/baselines/BENCH_pod_scale.json is a pure host-throughput gate.
// The `windows` column is the lane engine's conservative window count
// (also lane-count invariant) and `events/window` the work one barrier
// round amortizes; both explain the Mev/s trend across lane counts. The
// committed baseline names its capture box in DESIGN.md §14.4.
//
// `--reduced` shrinks the grammar to 16 hosts and divides the workload for
// quick local smoke runs; CI runs the full sweep.
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/table.hpp"
#include "core/podscale.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"

using namespace src;

namespace {

struct Point {
  const char* name;
  std::size_t initiators;
  std::size_t targets;
  std::size_t stripe_width;
};

/// The pod-incast preset calibration on the sweep's grammar: full mode is
/// 4 pods x 4 racks x 32 hosts (512 hosts, 21 shards under the rack
/// partition), reduced mode 2 x 2 x 4 (16 hosts, 7 shards).
scenario::ScenarioSpec sweep_spec(const Point& point, std::size_t lanes,
                                  bool reduced) {
  scenario::ScenarioSpec spec = scenario::pod_incast_spec(
      point.initiators, point.targets, point.stripe_width);
  if (reduced) {
    spec.topology.pod.hosts_per_rack = 8;  // 32 hosts: fits the deg=16 point
    spec.max_time = 60 * common::kMillisecond;
    for (scenario::WorkloadSpec& workload : spec.workloads) {
      workload.micro.read.count /= 6;
      workload.micro.write.count /= 6;
    }
  } else {
    spec.topology.pod.pods = 4;
    spec.topology.pod.racks_per_pod = 4;
    spec.topology.pod.hosts_per_rack = 32;
  }
  spec.lanes = lanes;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool reduced = argc > 1 && std::strcmp(argv[1], "--reduced") == 0;

  const std::vector<Point> points = {
      {"deg=8", 8, 8, 4},
      {"deg=16", 16, 8, 4},
  };
  const std::vector<std::size_t> lane_counts = {1, 2, 4};

  std::printf("pod-scale in-cast sweep — sharded lane engine%s\n\n",
              reduced ? " (reduced)" : " (512-host grammar)");
  bench::Harness harness("pod_scale");
  common::TextTable table({"point", "lanes", "read Gbps", "Jain", "events",
                           "cross-shard", "windows", "events/window",
                           "Mev/s"});

  int divergences = 0;
  for (const Point& point : points) {
    std::string baseline_snapshot;
    for (const std::size_t lanes : lane_counts) {
      const scenario::ScenarioSpec spec = sweep_spec(point, lanes, reduced);
      core::PodExperimentResult result;
      {
        auto scope = harness.scope(std::string(point.name) +
                                   "/lanes=" + std::to_string(lanes));
        result = core::run_pod_experiment(scenario::build_pod(spec));
        scope.events(result.events_executed);
        scope.items(result.reads_completed + result.writes_completed);
      }
      const bench::Harness::Record& record = harness.records().back();
      table.add_row({point.name, std::to_string(lanes),
                     common::fmt(result.read_rate().as_gbps()),
                     common::fmt(result.read_fairness_index(), 4),
                     std::to_string(result.events_executed),
                     std::to_string(result.cross_shard_messages),
                     std::to_string(result.windows),
                     common::fmt(static_cast<double>(result.events_executed) /
                                     static_cast<double>(result.windows),
                                 1),
                     common::fmt(record.events_per_sec() / 1e6)});
      // Lane-count invariance holds for the whole result and the window
      // sequence, not just the event count; a divergence here is an engine
      // bug, not noise.
      const std::string snapshot =
          result.snapshot() + "windows " + std::to_string(result.windows);
      if (baseline_snapshot.empty()) {
        baseline_snapshot = snapshot;
      } else if (snapshot != baseline_snapshot) {
        std::fprintf(stderr,
                     "%s: result DIVERGED between lane counts (lanes=%zu)\n",
                     point.name, lanes);
        ++divergences;
      }
    }
  }
  table.print(std::cout);
  return divergences == 0 ? 0 : 1;
}

// Drive the paper's full-scale testbed topology: a 4-pod Clos fabric with
// 256 hosts (16 per ToR, 4 ToRs and 2 leaves per pod, 40 Gbps links,
// 1 us delay). Half the hosts act as initiators, half as NVMe-oF targets;
// a cross-pod in-cast develops and DCQCN + PFC keep it lossless.
//
// Usage: clos_incast [targets_per_initiator]
#include <cstdio>
#include <cstdlib>

#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "net/topology.hpp"
#include "workload/micro.hpp"

int main(int argc, char** argv) {
  using namespace src;
  const std::size_t fan_in = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;

  std::printf("Building the paper's Clos testbed (4 pods x [2 leaves + 4 ToRs"
              " + 64 hosts])...\n");
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  const net::ClosTopology topo = net::make_clos(network);
  std::printf("  %zu hosts, %zu ToR and %zu leaf switches\n\n",
              topo.hosts.size(), topo.tors.size(), topo.leaves.size());

  // First half of the hosts are initiators, second half targets (paper's
  // 128/128 split). To keep this demo quick, only the first 8 initiators
  // actively submit I/O, each to `fan_in` targets in other pods.
  std::vector<std::unique_ptr<fabric::Initiator>> initiators;
  std::vector<std::unique_ptr<fabric::Target>> targets;
  const std::size_t half = topo.hosts.size() / 2;
  for (std::size_t i = 0; i < 8; ++i) {
    initiators.push_back(std::make_unique<fabric::Initiator>(
        network, topo.hosts[i * 16]));  // spread across ToRs
  }
  for (std::size_t t = 0; t < 8 * fan_in; ++t) {
    fabric::TargetConfig config;
    config.seed = 1 + t;
    targets.push_back(std::make_unique<fabric::Target>(
        network, topo.hosts[half + t * 3], config));
  }

  std::printf("Replaying a read-heavy workload from 8 initiators across %zu"
              " targets...\n", targets.size());
  for (std::size_t i = 0; i < initiators.size(); ++i) {
    workload::MicroParams params = workload::symmetric_micro(12.0, 44.0 * 1024, 3000);
    params.write.mean_iat_us = 48.0;
    params.write.count = 750;
    const auto trace = workload::generate_micro(params, 100 + i);
    initiators[i]->run_trace(
        trace, [&, i](const workload::TraceRecord&, std::size_t index) {
          return targets[(i * fan_in + index % fan_in) % targets.size()]->node_id();
        });
  }
  sim.run_until(120 * common::kMillisecond);

  std::uint64_t read_bytes = 0, reads_done = 0, writes_done = 0;
  for (const auto& initiator : initiators) {
    read_bytes += initiator->stats().read_bytes_received;
    reads_done += initiator->stats().reads_completed;
    writes_done += initiator->stats().writes_completed;
  }
  std::uint64_t signals = 0, pauses = 0;
  for (const auto& target : targets) {
    signals += target->stats().congestion_signals;
    pauses += target->stats().pauses_received;
  }
  std::uint64_t forwarded = 0;
  for (const net::NodeId s : topo.tors) forwarded += network.switch_at(s).stats().packets_forwarded;
  for (const net::NodeId s : topo.leaves) forwarded += network.switch_at(s).stats().packets_forwarded;

  std::printf("\nafter %.0f ms of simulated time:\n", common::to_milliseconds(sim.now()));
  std::printf("  reads completed:      %llu (%.2f Gbps of read data delivered)\n",
              static_cast<unsigned long long>(reads_done),
              static_cast<double>(read_bytes) * 8.0 / common::to_seconds(sim.now()) / 1e9);
  std::printf("  writes completed:     %llu\n", static_cast<unsigned long long>(writes_done));
  std::printf("  packets forwarded:    %llu\n", static_cast<unsigned long long>(forwarded));
  std::printf("  congestion signals:   %llu (of which %llu PFC pauses)\n",
              static_cast<unsigned long long>(signals),
              static_cast<unsigned long long>(pauses));
  std::printf("  simulator events run: %llu\n",
              static_cast<unsigned long long>(sim.executed_events()));
  return 0;
}

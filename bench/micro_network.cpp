// Packet-level network simulator cost: messages through a star and through
// the paper-scale pod tree with congestion control active, plus a high-degree
// switch fan-in incast and a PFC pause storm so the port ring buffers and
// per-ingress pause accounting sit on the measured path. Each iteration
// builds its topology and queues its messages untimed; only the run is
// timed. Emits
// BENCH_micro_network.json via the shared harness; the events/sec figures
// feed the committed perf-trajectory baselines gated by `srcctl benchdiff`.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/harness.hpp"
#include "net/topology.hpp"

namespace {

using namespace src;
using common::Rate;

/// One network on one timeline. A section builds it (topology and queued
/// messages) in the harness's untimed set-up and times only run().
struct Rig {
  explicit Rig(const net::NetConfig& config = {}) : network(lanes, config) {}

  /// Runs the queued traffic to completion; returns the events dispatched.
  std::uint64_t run() {
    sim::Simulator& sim = lanes.kernel(0);
    sim.run();
    return sim.executed_events();
  }

  sim::LaneGroup lanes{1, 1};
  net::Network network;
};

/// 16 rounds of two disjoint host pairs exchanging `message_bytes` messages
/// over a 4-host star.
net::StarTopology build_star(Rig& rig, std::uint64_t message_bytes) {
  const auto topo = net::make_star(rig.network, 4, Rate::gbps(40.0), common::kMicrosecond);
  for (int round = 0; round < 16; ++round) {
    rig.network.host(topo.hosts[0]).send_message(topo.hosts[1], message_bytes);
    rig.network.host(topo.hosts[2]).send_message(topo.hosts[3], message_bytes);
  }
  return topo;
}

/// `senders`-to-1 incast through one switch with DCQCN active.
net::StarTopology build_incast(Rig& rig, std::size_t senders, std::uint64_t message_bytes) {
  const auto topo =
      net::make_star(rig.network, senders + 1, Rate::gbps(40.0), common::kMicrosecond);
  for (std::size_t s = 1; s < topo.hosts.size(); ++s) {
    rig.network.host(topo.hosts[s]).send_message(topo.hosts[0], message_bytes);
  }
  return topo;
}

/// Lossless-fabric pause storm: ECN (and with it DCQCN's rate cuts) is
/// disabled and the PFC thresholds are lowered, so the only thing standing
/// between the 8-to-1 incast and packet loss is per-ingress XOFF/XON
/// cycling. Queues pile deep into the port ring buffers and every hop pays
/// the ingress-byte accounting.
net::NetConfig pause_storm_config() {
  net::NetConfig config;
  config.ecn.enabled = false;
  config.pfc.xoff_bytes = 64ull * 1024;
  config.pfc.xon_bytes = 32ull * 1024;
  return config;
}

/// 32 cross-pod transfers over the paper's 256-host fabric (4 x 4 x 16 pod).
void build_pod(Rig& rig) {
  const net::PodGrammar grammar{.pods = 4, .racks_per_pod = 4, .hosts_per_rack = 16};
  const auto topo = net::make_pod(rig.network, grammar, net::PartitionPolicy::kNone);
  for (int i = 0; i < 32; ++i) {
    rig.network.host(topo.hosts[static_cast<std::size_t>(i)])
        .send_message(topo.hosts[topo.hosts.size() - 1 - static_cast<std::size_t>(i)],
                      100'000);
  }
}

}  // namespace

int main() {
  src::bench::Harness harness("micro_network");
  std::uint64_t sink = 0;
  std::optional<Rig> rig;
  net::StarTopology topo;

  for (const std::uint64_t bytes : {std::uint64_t{4'096}, std::uint64_t{65'536}}) {
    harness.repeat_with_setup(
        "star_message_delivery/bytes=" + std::to_string(bytes), /*items_per_iter=*/32,
        [&] { topo = build_star(rig.emplace(), bytes); },
        [&] {
          const std::uint64_t events = rig->run();
          sink += rig->network.host(topo.hosts[1]).stats().bytes_received;
          return events;
        });
  }

  const auto run_incast = [&] {
    const std::uint64_t events = rig->run();
    sink += rig->network.host(topo.hosts[0]).stats().bytes_received;
    return events;
  };
  harness.repeat_with_setup(
      "incast_dcqcn/n=4", /*items_per_iter=*/4,
      [&] { topo = build_incast(rig.emplace(), 4, 1'000'000); }, run_incast);

  harness.repeat_with_setup(
      "switch_fanin_incast/n=16", /*items_per_iter=*/16,
      [&] { topo = build_incast(rig.emplace(), 16, 256 * 1024); }, run_incast);

  {
    std::uint64_t pauses = 0;
    std::uint64_t iters = 0;
    harness.repeat_with_setup(
        "pfc_pause_storm/n=8", /*items_per_iter=*/8,
        [&] { topo = build_incast(rig.emplace(pause_storm_config()), 8, 512 * 1024); },
        [&] {
          ++iters;
          const std::uint64_t events = run_incast();
          pauses += rig->network.switch_at(topo.hub).stats().pauses_sent;
          return events;
        });
    if (pauses == 0) {
      std::fprintf(stderr, "pfc_pause_storm generated no pauses -- not a storm\n");
      return 1;
    }
    std::printf("  pfc_pause_storm: %llu pauses/iter\n",
                static_cast<unsigned long long>(pauses / iters));
  }

  harness.repeat_with_setup(
      "pod_cross_pod/transfers=32", /*items_per_iter=*/32, [&] { build_pod(rig.emplace()); },
      [&] {
        const std::uint64_t events = rig->run();
        sink += events;
        return events;
      });

  if (sink == ~0ull) std::printf("impossible\n");  // defeat dead-code elimination
  return 0;
}

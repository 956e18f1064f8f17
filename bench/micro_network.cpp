// Packet-level network simulator cost: messages through a star and through
// the paper-scale pod tree with congestion control active, plus a high-degree
// switch fan-in incast and a PFC pause storm so the port ring buffers and
// per-ingress pause accounting sit on the measured path. Emits
// BENCH_micro_network.json via the shared harness; the events/sec figures
// feed the committed perf-trajectory baselines gated by `srcctl benchdiff`.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/harness.hpp"
#include "net/topology.hpp"

namespace {

using namespace src;
using common::Rate;

/// 16 rounds of two disjoint host pairs exchanging `message_bytes` messages
/// over a 4-host star.
std::uint64_t run_star(std::uint64_t message_bytes, std::uint64_t& sink) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  const auto topo = net::make_star(network, 4, Rate::gbps(40.0), common::kMicrosecond);
  for (int round = 0; round < 16; ++round) {
    network.host(topo.hosts[0]).send_message(topo.hosts[1], message_bytes);
    network.host(topo.hosts[2]).send_message(topo.hosts[3], message_bytes);
  }
  sim.run();
  sink += network.host(topo.hosts[1]).stats().bytes_received;
  return sim.executed_events();
}

/// `senders`-to-1 incast through one switch with DCQCN active.
std::uint64_t run_incast(std::size_t senders, std::uint64_t message_bytes,
                         std::uint64_t& sink) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  const auto topo =
      net::make_star(network, senders + 1, Rate::gbps(40.0), common::kMicrosecond);
  for (std::size_t s = 1; s < topo.hosts.size(); ++s) {
    network.host(topo.hosts[s]).send_message(topo.hosts[0], message_bytes);
  }
  sim.run();
  sink += network.host(topo.hosts[0]).stats().bytes_received;
  return sim.executed_events();
}

/// Lossless-fabric pause storm: ECN (and with it DCQCN's rate cuts) is
/// disabled and the PFC thresholds are lowered, so the only thing standing
/// between the 8-to-1 incast and packet loss is per-ingress XOFF/XON
/// cycling. Queues pile deep into the port ring buffers and every hop pays
/// the ingress-byte accounting.
std::uint64_t run_pause_storm(std::uint64_t& sink, std::uint64_t& pauses) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::NetConfig config;
  config.ecn.enabled = false;
  config.pfc.xoff_bytes = 64ull * 1024;
  config.pfc.xon_bytes = 32ull * 1024;
  net::Network network(lanes, config);
  const auto topo = net::make_star(network, 9, Rate::gbps(40.0), common::kMicrosecond);
  for (std::size_t s = 1; s < topo.hosts.size(); ++s) {
    network.host(topo.hosts[s]).send_message(topo.hosts[0], 512 * 1024);
  }
  sim.run();
  sink += network.host(topo.hosts[0]).stats().bytes_received;
  pauses += network.switch_at(topo.hub).stats().pauses_sent;
  return sim.executed_events();
}

/// 32 cross-pod transfers over the paper's 256-host fabric (4 x 4 x 16 pod).
std::uint64_t run_pod(std::uint64_t& sink) {
  sim::LaneGroup lanes{1, 1};
  sim::Simulator& sim = lanes.kernel(0);
  net::Network network(lanes, net::NetConfig{});
  const net::PodGrammar grammar{.pods = 4, .racks_per_pod = 4, .hosts_per_rack = 16};
  const auto topo = net::make_pod(network, grammar, net::PartitionPolicy::kNone);
  for (int i = 0; i < 32; ++i) {
    network.host(topo.hosts[static_cast<std::size_t>(i)])
        .send_message(topo.hosts[topo.hosts.size() - 1 - static_cast<std::size_t>(i)],
                      100'000);
  }
  sim.run();
  sink += sim.executed_events();
  return sim.executed_events();
}

}  // namespace

int main() {
  src::bench::Harness harness("micro_network");
  std::uint64_t sink = 0;

  for (const std::uint64_t bytes : {std::uint64_t{4'096}, std::uint64_t{65'536}}) {
    harness.repeat("star_message_delivery/bytes=" + std::to_string(bytes),
                   /*items_per_iter=*/32,
                   [&] { return run_star(bytes, sink); });
  }

  harness.repeat("incast_dcqcn/n=4", /*items_per_iter=*/4,
                 [&] { return run_incast(4, 1'000'000, sink); });

  harness.repeat("switch_fanin_incast/n=16", /*items_per_iter=*/16,
                 [&] { return run_incast(16, 256 * 1024, sink); });

  {
    std::uint64_t pauses = 0;
    std::uint64_t iters = 0;
    harness.repeat("pfc_pause_storm/n=8", /*items_per_iter=*/8, [&] {
      ++iters;
      return run_pause_storm(sink, pauses);
    });
    if (pauses == 0) {
      std::fprintf(stderr, "pfc_pause_storm generated no pauses -- not a storm\n");
      return 1;
    }
    std::printf("  pfc_pause_storm: %llu pauses/iter\n",
                static_cast<unsigned long long>(pauses / iters));
  }

  harness.repeat("pod_cross_pod/transfers=32", /*items_per_iter=*/32,
                 [&] { return run_pod(sink); });

  if (sink == ~0ull) std::printf("impossible\n");  // defeat dead-code elimination
  return 0;
}

#include "net/topology.hpp"

#include <stdexcept>
#include <string>

namespace src::net {

StarTopology make_star(Network& net, std::size_t n_hosts, Rate link_rate,
                       SimTime link_delay, std::uint16_t host_shard,
                       std::uint16_t hub_shard) {
  StarTopology topo;
  topo.hub = net.add_switch("hub", hub_shard);
  topo.hosts.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const NodeId host = net.add_host("host" + std::to_string(i), host_shard);
    net.connect(host, topo.hub, link_rate, link_delay);
    topo.hosts.push_back(host);
  }
  net.finalize();
  return topo;
}

PodTopology make_pod(Network& net, const PodGrammar& grammar,
                     PartitionPolicy policy) {
  if (grammar.pods < 1 || grammar.racks_per_pod < 1 ||
      grammar.hosts_per_rack < 1) {
    throw std::invalid_argument(
        "make_pod: pods, racks_per_pod and hosts_per_rack must all be >= 1");
  }
  if (grammar.oversubscription <= 0.0) {
    throw std::invalid_argument("make_pod: oversubscription must be > 0");
  }

  PodTopology topo;
  topo.plan = PodShardPlan{grammar.pods, grammar.racks_per_pod, policy};
  topo.rack_uplink_rate =
      grammar.rack_uplink_rate.is_zero()
          ? grammar.host_rate * static_cast<double>(grammar.hosts_per_rack) /
                grammar.oversubscription
          : grammar.rack_uplink_rate;
  topo.spine_uplink_rate =
      grammar.spine_uplink_rate.is_zero()
          ? topo.rack_uplink_rate * static_cast<double>(grammar.racks_per_pod) /
                grammar.oversubscription
          : grammar.spine_uplink_rate;

  // Creation order (spine, then per pod: agg, then per rack: ToR + hosts) is
  // part of the grammar's contract: node ids — and with them host id-cell
  // bases and port order — are a pure function of the counts.
  topo.spine = net.add_switch("spine", topo.plan.spine_shard());
  for (std::size_t p = 0; p < grammar.pods; ++p) {
    const NodeId agg =
        net.add_switch("agg_p" + std::to_string(p), topo.plan.agg_shard(p));
    topo.aggs.push_back(agg);
    net.connect(agg, topo.spine, topo.spine_uplink_rate,
                grammar.spine_uplink_delay);
    for (std::size_t r = 0; r < grammar.racks_per_pod; ++r) {
      const NodeId tor =
          net.add_switch("tor_p" + std::to_string(p) + "_r" + std::to_string(r),
                         topo.plan.rack_shard(p, r));
      topo.tors.push_back(tor);
      net.connect(tor, agg, topo.rack_uplink_rate, grammar.rack_uplink_delay);
      for (std::size_t h = 0; h < grammar.hosts_per_rack; ++h) {
        const NodeId host = net.add_host(
            "host_p" + std::to_string(p) + "_r" + std::to_string(r) + "_" +
                std::to_string(h),
            topo.plan.rack_shard(p, r));
        net.connect(host, tor, grammar.host_rate, grammar.host_link_delay);
        topo.hosts.push_back(host);
      }
    }
  }

  net.finalize();
  return topo;
}

}  // namespace src::net

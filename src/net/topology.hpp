// Topology builders, one per shape: the single-switch star (the in-cast
// experiments) and the pod grammar, a ToR / aggregation / spine tree that
// also builds the paper's 256-host Clos testbed (4 pods x 4 racks x 16
// hosts).
#pragma once

#include <vector>

#include "net/network.hpp"
#include "net/partition.hpp"

namespace src::net {

struct StarTopology {
  NodeId hub = kInvalidNode;
  std::vector<NodeId> hosts;
};

/// `n_hosts` hosts hanging off one switch. The hosts land on `host_shard`
/// and the hub on `hub_shard` (both default to shard 0, which suits a
/// one-shard LaneGroup).
StarTopology make_star(Network& net, std::size_t n_hosts, Rate link_rate,
                       SimTime link_delay, std::uint16_t host_shard = 0,
                       std::uint16_t hub_shard = 0);

// ---------------------------------------------------------------------------
// Declarative pod grammar: pods x racks_per_pod x hosts_per_rack, a ToR per
// rack, an aggregation switch per pod, and one spine joining the pods. Tier
// rates are either given explicitly or derived from the oversubscription
// ratio (uplink = downlink_sum / oversubscription). The tree has a single
// path between any two hosts, so routing — and therefore results — cannot
// depend on shard layout.
// ---------------------------------------------------------------------------

struct PodGrammar {
  std::size_t pods = 2;
  std::size_t racks_per_pod = 2;
  std::size_t hosts_per_rack = 16;
  /// Downlink-capacity : uplink-capacity ratio applied at each tier when the
  /// corresponding uplink rate is left unset. 1.0 = non-blocking.
  double oversubscription = 1.0;
  Rate host_rate = Rate::gbps(40.0);
  Rate rack_uplink_rate{};   ///< zero => hosts_per_rack * host_rate / oversub
  Rate spine_uplink_rate{};  ///< zero => racks_per_pod * rack_uplink / oversub
  SimTime host_link_delay = common::kMicrosecond;
  SimTime rack_uplink_delay = common::kMicrosecond;
  SimTime spine_uplink_delay = 2 * common::kMicrosecond;
};

struct PodTopology {
  std::vector<NodeId> hosts;  ///< pod-major, then rack-major order
  std::vector<NodeId> tors;   ///< pod-major
  std::vector<NodeId> aggs;   ///< one per pod
  NodeId spine = kInvalidNode;
  PodShardPlan plan;
  Rate rack_uplink_rate{};   ///< as resolved (explicit or derived)
  Rate spine_uplink_rate{};  ///< as resolved
};

/// Builds the grammar instance and finalizes the network. Nodes are placed
/// per `policy` (racks, aggregations and the spine each get shards from the
/// PodShardPlan), so the network's LaneGroup needs plan.shard_count()
/// shards.
PodTopology make_pod(Network& net, const PodGrammar& grammar,
                     PartitionPolicy policy = PartitionPolicy::kByRack);

}  // namespace src::net

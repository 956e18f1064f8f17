// Network container and builder: owns hosts and switches, wires up links,
// and computes static shortest-path routes: one egress port per switch and
// destination host (BFS; on a tie, the first port in connection order).
//
// The network runs on a sim::LaneGroup: every node names its shard at
// creation and runs on that shard's kernel (a one-shard group puts every
// node on one kernel). Links between shards become lane-boundary mailbox
// channels (Port::set_lane_channel) and finalize() hands the minimum
// cross-shard propagation delay to the group as its conservative
// lookahead. Each host mints its own flow ids (`id_base` in
// net/packet.hpp): globally unique without cross-shard mutable state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/switch.hpp"
#include "sim/lane.hpp"

namespace src::net {

class Network {
 public:
  /// The LaneGroup must outlive the Network.
  Network(sim::LaneGroup& lanes, NetConfig config)
      : lanes_(lanes), config_(config) {}

  /// `shard` is the LaneGroup shard the node runs on (< shard_count).
  NodeId add_host(std::string name, std::uint16_t shard = 0);
  NodeId add_switch(std::string name, std::uint16_t shard = 0);

  /// Create a bidirectional link (one port on each side). A link between
  /// shards must have delay >= 1 ns (it bounds the lookahead).
  void connect(NodeId a, NodeId b, Rate rate, SimTime delay);

  /// Compute routes and finalize per-port hooks. Call once after building.
  /// This also sets the LaneGroup's lookahead to the minimum cross-shard
  /// link delay.
  void finalize();

  Host& host(NodeId id);
  const Host& host(NodeId id) const;
  Switch& switch_at(NodeId id);
  const Switch& switch_at(NodeId id) const;
  bool is_host(NodeId id) const;

  std::size_t node_count() const { return nodes_.size(); }
  sim::LaneGroup& lanes() { return lanes_; }
  std::uint16_t shard_of(NodeId id) const { return node_shard_.at(id); }
  /// The kernel node `id` runs on: whatever acts on a node reads its clock
  /// and schedules there.
  sim::Simulator& kernel_of(NodeId id) { return lanes_.kernel(shard_of(id)); }
  const NetConfig& config() const { return config_; }

  /// System-wide PFC pauses received by hosts.
  std::uint64_t total_host_pauses() const;

 private:
  std::uint16_t checked_shard(std::uint16_t shard) const;

  sim::LaneGroup& lanes_;
  NetConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> host_flags_;
  std::vector<std::uint16_t> node_shard_;
  SimTime min_cross_shard_delay_ = common::kTimeInfinity;
  bool finalized_ = false;
};

}  // namespace src::net

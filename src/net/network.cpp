#include "net/network.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

namespace src::net {

std::uint16_t Network::checked_shard(std::uint16_t shard) const {
  if (shard >= lanes_.shard_count()) {
    throw std::invalid_argument("Network: shard " + std::to_string(shard) +
                                " out of range (lane group has " +
                                std::to_string(lanes_.shard_count()) +
                                " shards)");
  }
  return shard;
}

NodeId Network::add_host(std::string name, std::uint16_t shard) {
  const auto id = static_cast<NodeId>(nodes_.size());
  shard = checked_shard(shard);
  nodes_.push_back(std::make_unique<Host>(lanes_.kernel(shard), id,
                                          std::move(name), config_));
  host_flags_.push_back(true);
  node_shard_.push_back(shard);
  return id;
}

NodeId Network::add_switch(std::string name, std::uint16_t shard) {
  const auto id = static_cast<NodeId>(nodes_.size());
  shard = checked_shard(shard);
  nodes_.push_back(
      std::make_unique<Switch>(lanes_.kernel(shard), id, std::move(name), config_));
  host_flags_.push_back(false);
  node_shard_.push_back(shard);
  return id;
}

void Network::connect(NodeId a, NodeId b, Rate rate, SimTime delay) {
  Node& node_a = *nodes_.at(a);
  Node& node_b = *nodes_.at(b);
  Port& port_a = node_a.add_port();
  Port& port_b = node_b.add_port();
  port_a.attach(&node_b, port_b.index(), rate, delay);
  port_b.attach(&node_a, port_a.index(), rate, delay);
  if (node_shard_[a] != node_shard_[b]) {
    if (delay < 1) {
      throw std::invalid_argument(
          "Network: cross-shard link " + node_a.name() + " <-> " +
          node_b.name() +
          " needs delay >= 1 ns (it bounds the conservative lookahead)");
    }
    port_a.set_lane_channel(&lanes_, node_shard_[a], node_shard_[b]);
    port_b.set_lane_channel(&lanes_, node_shard_[b], node_shard_[a]);
    min_cross_shard_delay_ = std::min(min_cross_shard_delay_, delay);
  }
}

void Network::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (min_cross_shard_delay_ != common::kTimeInfinity) {
    lanes_.set_lookahead(min_cross_shard_delay_);
  }

  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (host_flags_[n]) {
      auto& h = host(n);
      if (h.port_count() == 0) continue;
      h.port(0).on_tx_done = [&h] { h.kick(); };
    } else {
      switch_at(n).finalize_ports(nodes_.size());
    }
  }

  // Shortest-path next hops: BFS rooted at each host destination; each
  // switch forwards through its first port (in connection order) whose
  // peer is one hop closer. On a tree that peer is the only one.
  std::vector<int> dist(nodes_.size());
  std::queue<NodeId> frontier;
  for (NodeId dst = 0; dst < nodes_.size(); ++dst) {
    if (!host_flags_[dst]) continue;
    std::fill(dist.begin(), dist.end(), -1);
    dist[dst] = 0;
    frontier.push(dst);
    while (!frontier.empty()) {
      const Node& current = *nodes_[frontier.front()];
      frontier.pop();
      for (std::size_t i = 0; i < current.port_count(); ++i) {
        const NodeId peer = current.port(i).peer()->id();
        if (dist[peer] != -1) continue;
        dist[peer] = dist[current.id()] + 1;
        frontier.push(peer);
      }
    }
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      if (host_flags_[n] || dist[n] < 0) continue;
      Switch& sw = switch_at(n);
      for (std::size_t i = 0; i < sw.port_count(); ++i) {
        if (dist[sw.port(i).peer()->id()] == dist[n] - 1) {
          sw.set_route(dst, static_cast<std::int32_t>(i));
          break;
        }
      }
    }
  }
}

Host& Network::host(NodeId id) {
  if (!host_flags_.at(id)) throw std::invalid_argument("node is not a host");
  return static_cast<Host&>(*nodes_[id]);
}

const Host& Network::host(NodeId id) const {
  if (!host_flags_.at(id)) throw std::invalid_argument("node is not a host");
  return static_cast<const Host&>(*nodes_[id]);
}

Switch& Network::switch_at(NodeId id) {
  if (host_flags_.at(id)) throw std::invalid_argument("node is not a switch");
  return static_cast<Switch&>(*nodes_[id]);
}

const Switch& Network::switch_at(NodeId id) const {
  if (host_flags_.at(id)) throw std::invalid_argument("node is not a switch");
  return static_cast<const Switch&>(*nodes_[id]);
}

bool Network::is_host(NodeId id) const { return host_flags_.at(id); }

std::uint64_t Network::total_host_pauses() const {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (host_flags_[n]) total += host(n).stats().pauses_received;
  }
  return total;
}

}  // namespace src::net

// Output-queued switch with ECN marking at egress enqueue and PFC
// (priority flow control) driven by per-ingress-port buffered-byte
// accounting: above X_off the switch pauses the upstream device on that
// ingress link; below X_on it resumes it. Routing is a static table of one
// egress port per destination node, computed by the Network builder.
#pragma once

#include <cstdint>
#include <vector>

#include "net/config.hpp"
#include "net/node.hpp"

namespace src::net {

struct SwitchStats {
  std::uint64_t packets_forwarded = 0;
  std::uint64_t packets_dropped = 0;  ///< discarded by fault injection
  std::uint64_t pauses_sent = 0;
  std::uint64_t resumes_sent = 0;
  std::uint64_t pauses_received = 0;
};

class Switch final : public Node {
 public:
  Switch(sim::Simulator& sim, NodeId id, std::string name, NetConfig config)
      : Node(sim, id, std::move(name)), config_(config) {}

  void receive(Packet packet, std::int32_t ingress_port) override;

  /// Send packets for destination node `dst` out of `egress_port`. The
  /// table must have been sized by finalize_ports.
  void set_route(NodeId dst, std::int32_t egress_port) { routes_.at(dst) = egress_port; }
  /// Egress port toward `dst`, or -1 if unroutable.
  std::int32_t route(NodeId dst) const {
    return dst < routes_.size() ? routes_[dst] : -1;
  }

  /// Called by the Network builder once all ports exist: wires the port
  /// hooks and sizes the route table for `node_count` nodes, all unroutable.
  void finalize_ports(std::size_t node_count);

  const SwitchStats& stats() const { return stats_; }
  std::uint64_t ingress_buffered_bytes(std::size_t ingress) const {
    return ingress_bytes_.at(ingress);
  }

 private:
  void account_dequeue(Packet& packet);
  void check_pause(std::size_t ingress);

  NetConfig config_;
  std::vector<std::int32_t> routes_;  ///< egress port per destination node
  std::vector<std::uint64_t> ingress_bytes_;
  std::vector<bool> pause_sent_;
  SwitchStats stats_;
};

}  // namespace src::net

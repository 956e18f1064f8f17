// End host (RNIC model). A host owns one uplink port and any number of
// flows (one per destination it talks to). Each flow is paced by its own
// DCQCN controller; the uplink serializes packets at line rate and obeys
// PFC pause frames from the ToR. As a receiver, the host reflects ECN
// marks back to senders as CNPs (at most one per CNP interval per flow)
// and reassembles messages: a flow sends its messages one after another
// and its fragments travel one path in FIFO order, so one running byte
// count per incoming flow, reset by each message's last fragment, is the
// whole reassembly state.
//
// The per-flow send queues model the RDMA transmit queue (TXQ) the paper
// describes: when DCQCN throttles a flow, its messages back up here.
//
// Flow state is kept dense: flows live in a contiguous slot arena indexed
// by creation order (flows are never destroyed), with the per-packet demux
// maps — (dst, channel) and flow id to arena index — as open-addressed
// FlatMap64s, and the fields the pacing/arbitration loop touches per
// packet (queued bytes, pacing gate, current controller rate, message
// count) split into parallel struct-of-arrays vectors. The round-robin
// scan and `total_allowed_rate()` walk those arrays linearly in creation
// order, so the floating-point summation order the SRC congestion
// callback observes is exactly the old `flow_order_` order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "net/dcqcn.hpp"
#include "net/dctcp.hpp"
#include "net/node.hpp"

namespace src::net {

struct HostStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t pauses_received = 0;
  std::uint64_t cnps_sent = 0;
  std::uint64_t cnps_received = 0;
  std::uint64_t ecn_marked_received = 0;
  std::uint64_t delay_acks_sent = 0;
  std::uint64_t delay_acks_received = 0;
};

class Host final : public Node {
 public:
  /// Message fully received: source, the sender's header, total payload
  /// bytes, app tag.
  using MessageHandler =
      std::function<void(NodeId src, const MessageHeader& header,
                         std::uint64_t bytes, std::uint32_t tag)>;
  /// Payload bytes received (per packet, with the message's app tag) — for
  /// throughput timelines.
  using DataHandler =
      std::function<void(NodeId src, std::uint32_t bytes, std::uint32_t tag)>;
  /// PFC pause frame received by this host.
  using PauseHandler = std::function<void()>;
  /// DCQCN changed the send rate of the flow to `dst`.
  using RateChangeHandler = std::function<void(NodeId dst, Rate rate, bool decrease)>;

  /// Flow ids are minted per host (see `id_base`).
  Host(sim::Simulator& sim, NodeId id, std::string name, NetConfig config)
      : Node(sim, id, std::move(name)), config_(config), next_id_(id_base(id)) {}

  /// Queue a message of `bytes` payload to `dst`.
  /// `channel` selects an independent flow (its own DCQCN state and send
  /// queue) to the same destination — NVMe-oF keeps command capsules and
  /// bulk data on separate queue pairs so small capsules are not stuck
  /// behind throttled payload traffic. `header` rides every fragment and
  /// reaches the receiver's message handler.
  void send_message(NodeId dst, std::uint64_t bytes, std::uint32_t tag = 0,
                    std::uint32_t channel = 0, MessageHeader header = {});

  void receive(Packet packet, std::int32_t ingress_port) override;

  void set_message_handler(MessageHandler fn) { on_message_ = std::move(fn); }
  void set_data_handler(DataHandler fn) { on_data_ = std::move(fn); }
  void set_pause_handler(PauseHandler fn) { on_pause_ = std::move(fn); }
  void set_rate_change_handler(RateChangeHandler fn) { on_rate_change_ = std::move(fn); }

  const HostStats& stats() const { return stats_; }

  /// Override the default congestion control (NetConfig::cc_algorithm) for
  /// every flow this host originates. Must be called before the first
  /// message to a destination creates its flow.
  void set_cc_algorithm(int algorithm) { config_.cc_algorithm = algorithm; }
  /// Override the congestion control for flows to one specific peer —
  /// mixed-CC coexistence: a target paces its read-data flow back to an
  /// initiator with the *initiator's* chosen algorithm. Build-time
  /// populated, find-only afterwards: a sorted vector probed by binary
  /// search.
  void set_peer_cc(NodeId dst, int algorithm);
  int cc_algorithm_for(NodeId dst) const;

  /// Re-enter the send loop (wired to the uplink's on_tx_done by the
  /// Network builder).
  void kick() { pump(); }

  /// TXQ backlog to `dst` (bytes queued but not yet transmitted), summed
  /// over all channels; 0 if no flow exists.
  std::uint64_t txq_bytes(NodeId dst) const;
  /// Current DCQCN rate of the flow to `dst` on `channel`; line rate if no
  /// such flow yet.
  Rate flow_rate(NodeId dst, std::uint32_t channel = 0) const;
  /// Sum of DCQCN rates over flows with backlog (the aggregate demanded
  /// sending rate the network grants this host right now).
  Rate total_allowed_rate() const;

 private:
  struct Message {
    std::uint64_t remaining;
    std::uint32_t tag;
    MessageHeader header;
  };

  /// Cold per-flow state (identity, queued messages, controller). The hot
  /// fields live in the parallel arrays below, indexed by arena slot.
  struct Flow {
    std::uint64_t id;
    NodeId dst;
    std::deque<Message> messages;
    std::unique_ptr<RateController> cc;  ///< per NetConfig / peer override
  };

  /// Arena index of the flow to (dst, channel), creating it on first use.
  std::uint32_t flow_index_to(NodeId dst, std::uint32_t channel);
  void pump();
  /// Total TXQ backlog over all flows (creation order).
  std::uint64_t total_txq_bytes() const;
  static std::uint64_t flow_key(NodeId dst, std::uint32_t channel) {
    return (static_cast<std::uint64_t>(channel) << 32) | dst;
  }
  /// Receiver state of one incoming flow.
  struct RxFlow {
    std::uint64_t message_bytes = 0;  ///< of the message being reassembled
    SimTime last_cnp = 0;             ///< DCQCN CNP pacing
  };

  void send_cnp(const Packet& data, SimTime& last_cnp);
  void send_delay_ack(const Packet& data);

  NetConfig config_;
  std::uint64_t next_id_;  ///< last flow id minted
  std::vector<std::pair<NodeId, int>> peer_cc_;  ///< sorted by NodeId

  // Flow arena (creation order, never erased) + per-packet demux indices.
  std::vector<Flow> flows_;
  common::FlatMap64<std::uint32_t> flow_index_;        ///< by (dst, channel) key
  common::FlatMap64<std::uint32_t> flow_index_by_id_;  ///< by flow id
  // Struct-of-arrays hot fields, parallel to flows_: the rate-update /
  // arbitration loop reads only these.
  std::vector<std::uint64_t> flow_queued_bytes_;
  std::vector<SimTime> flow_next_allowed_;
  std::vector<Rate> flow_rate_;        ///< mirror of cc->current_rate()
  std::vector<std::uint32_t> flow_msg_count_;
  std::size_t rr_next_ = 0;
  sim::EventId wake_event_;

  // Receiver state.
  common::FlatMap64<RxFlow> rx_flows_;  ///< key: flow_id

  HostStats stats_;
  MessageHandler on_message_;
  DataHandler on_data_;
  PauseHandler on_pause_;
  RateChangeHandler on_rate_change_;

  static constexpr std::size_t kPortQueueTarget = 2;
};

}  // namespace src::net

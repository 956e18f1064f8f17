#include "net/host.hpp"

#include <algorithm>

#include "net/cc_factory.hpp"
#include "obs/obs.hpp"

namespace src::net {

void Host::set_peer_cc(NodeId dst, int algorithm) {
  const auto it = std::lower_bound(
      peer_cc_.begin(), peer_cc_.end(), dst,
      [](const std::pair<NodeId, int>& entry, NodeId key) { return entry.first < key; });
  if (it != peer_cc_.end() && it->first == dst) {
    it->second = algorithm;
  } else {
    peer_cc_.insert(it, {dst, algorithm});
  }
}

int Host::cc_algorithm_for(NodeId dst) const {
  const auto it = std::lower_bound(
      peer_cc_.begin(), peer_cc_.end(), dst,
      [](const std::pair<NodeId, int>& entry, NodeId key) { return entry.first < key; });
  return it != peer_cc_.end() && it->first == dst ? it->second : config_.cc_algorithm;
}

std::uint32_t Host::flow_index_to(NodeId dst, std::uint32_t channel) {
  const std::uint64_t key = flow_key(dst, channel);
  if (const std::uint32_t* found = flow_index_.find(key)) return *found;

  const auto index = static_cast<std::uint32_t>(flows_.size());
  Flow flow;
  flow.id = ++next_id_;
  flow.dst = dst;
  flow.cc =
      make_rate_controller(cc_algorithm_for(dst), sim_, config_, port(0).rate());
  // Tracer lane = (node id, flow index): deterministic and unique per flow
  // while a host has fewer than 65535 flows.
  flow.cc->set_trace_lane((static_cast<std::uint32_t>(id()) << 16) | (index + 1));
  // Every controller rate change lands in the SoA mirror first, so the
  // arbitration loop and total_allowed_rate() never pay a virtual call.
  flow.cc->set_rate_change_handler([this, dst, index](Rate rate, bool decrease) {
    flow_rate_[index] = rate;
    if (on_rate_change_) on_rate_change_(dst, rate, decrease);
    if (!decrease) pump();  // a recovered rate may unblock pacing
  });

  flow_index_.insert_or_assign(key, index);
  flow_index_by_id_.insert_or_assign(flow.id, index);
  flow_queued_bytes_.push_back(0);
  flow_next_allowed_.push_back(0);
  flow_rate_.push_back(flow.cc->current_rate());
  flow_msg_count_.push_back(0);
  flows_.push_back(std::move(flow));
  return index;
}

void Host::send_message(NodeId dst, std::uint64_t bytes, std::uint32_t tag,
                        std::uint32_t channel, MessageHeader header) {
  const std::uint32_t index = flow_index_to(dst, channel);
  flows_[index].messages.push_back(Message{bytes, tag, header});
  flow_queued_bytes_[index] += bytes;
  ++flow_msg_count_[index];
  ++stats_.messages_sent;
  pump();
}

void Host::pump() {
  Port& uplink = port(0);
  SimTime earliest_wake = common::kTimeInfinity;
  const SimTime now = sim_.now();

  while (uplink.queue_packets() < kPortQueueTarget) {
    // Round-robin over flows with backlog whose pacing gate is open: a
    // linear scan of the SoA arrays in creation order.
    const std::size_t n = flows_.size();
    std::size_t chosen = n;
    earliest_wake = common::kTimeInfinity;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t index = rr_next_ + i;
      if (index >= n) index -= n;
      if (flow_msg_count_[index] == 0) continue;
      if (flow_next_allowed_[index] <= now) {
        chosen = index;
        rr_next_ = index + 1 == n ? 0 : index + 1;
        break;
      }
      earliest_wake = std::min(earliest_wake, flow_next_allowed_[index]);
    }
    if (chosen == n) break;

    Flow& flow = flows_[chosen];
    Message& message = flow.messages.front();
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.mtu_bytes, message.remaining));

    Packet packet;
    packet.kind = PacketKind::kData;
    packet.dst = flow.dst;
    packet.flow_id = flow.id;
    packet.header = message.header;
    packet.bytes = chunk;
    packet.tag = message.tag;
    // Delay-based CC: stamp the send time and ask the receiver for a
    // timestamp echo. Other controllers leave both fields zeroed, keeping
    // their wire traffic identical to before.
    if (flow.cc->wants_delay_ack()) {
      packet.sent_at = now;
      packet.wants_delay_ack = true;
    }
    packet.echo_per_mark = flow.cc->wants_per_mark_echo();
    message.remaining -= chunk;
    flow_queued_bytes_[chosen] -= chunk;
    if (message.remaining == 0) {
      packet.last_of_message = true;
      flow.messages.pop_front();
      --flow_msg_count_[chosen];
    }

    stats_.bytes_sent += chunk;
    flow.cc->on_bytes_sent(packet.wire_bytes());
    flow_next_allowed_[chosen] =
        now + flow_rate_[chosen].transmission_time(packet.wire_bytes());
    uplink.enqueue(packet);
  }

  // TXQ occupancy sample (the paper's Fig. 3/5 evidence: throttled flows
  // back their messages up here). Computed only when tracing is on.
  SRC_OBS_TRACE_COUNTER("net", "host.txq_bytes", sim_.now(),
                        static_cast<std::uint32_t>(id()),
                        static_cast<double>(total_txq_bytes()));

  // Nothing sendable right now: wake when the earliest pacing gate opens.
  sim_.cancel(wake_event_);
  wake_event_ = {};
  if (earliest_wake != common::kTimeInfinity) {
    // srclint:capture-ok(hosts live as long as their network's simulator)
    wake_event_ = sim_.schedule_at(earliest_wake, [this] { pump(); });
  }
}

void Host::receive(Packet packet, std::int32_t /*ingress_port*/) {
  switch (packet.kind) {
    case PacketKind::kPause:
      ++stats_.pauses_received;
      SRC_OBS_COUNT("net.pfc.pauses_received");
      SRC_OBS_INSTANT("net", "pfc.pause", sim_.now(),
                      static_cast<std::uint32_t>(id()), 0.0);
      port(0).pause();
      if (on_pause_) on_pause_();
      return;
    case PacketKind::kResume:
      SRC_OBS_COUNT("net.pfc.resumes_received");
      port(0).resume();
      return;
    case PacketKind::kCnp: {
      ++stats_.cnps_received;
      SRC_OBS_COUNT("net.cnps_delivered");
      if (const std::uint32_t* index = flow_index_by_id_.find(packet.flow_id)) {
        flows_[*index].cc->on_congestion_feedback();
      }
      return;
    }
    case PacketKind::kDelayAck: {
      ++stats_.delay_acks_received;
      SRC_OBS_COUNT("net.delay_acks_delivered");
      if (const std::uint32_t* index = flow_index_by_id_.find(packet.flow_id)) {
        flows_[*index].cc->on_delay_sample(sim_.now() - packet.sent_at);
      }
      return;
    }
    case PacketKind::kData:
      break;
  }

  stats_.bytes_received += packet.bytes;
  RxFlow& rx = rx_flows_[packet.flow_id];
  if (packet.ecn_marked) {
    ++stats_.ecn_marked_received;
    SRC_OBS_COUNT("net.ecn_marked_received");
    send_cnp(packet, rx.last_cnp);
  }
  if (packet.wants_delay_ack) send_delay_ack(packet);
  rx.message_bytes += packet.bytes;
  const std::uint64_t message_bytes = rx.message_bytes;
  if (packet.last_of_message) rx.message_bytes = 0;

  const NodeId src = sender_of(packet.flow_id);
  if (on_data_) on_data_(src, packet.bytes, packet.tag);
  if (packet.last_of_message) {
    ++stats_.messages_received;
    if (on_message_) on_message_(src, packet.header, message_bytes, packet.tag);
  }
}

void Host::send_cnp(const Packet& data, SimTime& last_cnp) {
  // DCQCN NICs pace CNPs to one per interval per flow; DCTCP and Cubic
  // senders request a per-mark echo (the per-packet ECN-echo of an ACK
  // stream), carried as a flag on each data packet so mixed-CC receivers
  // apply the right policy per flow.
  if (!data.echo_per_mark) {
    if (last_cnp != 0 && sim_.now() - last_cnp < config_.dcqcn.cnp_interval) return;
    last_cnp = sim_.now();
  }

  Packet cnp;
  cnp.kind = PacketKind::kCnp;
  cnp.dst = sender_of(data.flow_id);
  cnp.flow_id = data.flow_id;
  cnp.bytes = 0;
  ++stats_.cnps_sent;
  port(0).enqueue(cnp);
}

void Host::send_delay_ack(const Packet& data) {
  Packet ack;
  ack.kind = PacketKind::kDelayAck;
  ack.dst = sender_of(data.flow_id);
  ack.flow_id = data.flow_id;
  ack.bytes = 0;
  ack.sent_at = data.sent_at;  // echoed so the sender computes now - sent_at
  ++stats_.delay_acks_sent;
  port(0).enqueue(ack);
}

std::uint64_t Host::total_txq_bytes() const {
  std::uint64_t total = 0;
  for (const std::uint64_t queued : flow_queued_bytes_) total += queued;
  return total;
}

std::uint64_t Host::txq_bytes(NodeId dst) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].dst == dst) total += flow_queued_bytes_[i];
  }
  return total;
}

Rate Host::flow_rate(NodeId dst, std::uint32_t channel) const {
  const std::uint32_t* index = flow_index_.find(flow_key(dst, channel));
  return index == nullptr ? port(0).rate() : flow_rate_[*index];
}

Rate Host::total_allowed_rate() const {
  // Walk in flow creation order: the sum is floating point, so the order
  // is observable (it feeds the SRC congestion callback) and must not
  // depend on hash-table layout. The SoA mirror makes this a branchy but
  // contiguous scan with no virtual calls.
  Rate total = Rate::zero();
  bool any = false;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flow_queued_bytes_[i] == 0 && flow_msg_count_[i] == 0) continue;
    total = total + flow_rate_[i];
    any = true;
  }
  return any ? total : port(0).rate();
}

}  // namespace src::net

// Packet model for the RoCE-like lossless network. Data packets carry
// message fragments between hosts; CNPs are DCQCN congestion notification
// packets; delay acks are the zero-byte timestamp echoes delay-based
// congestion control (Swift) samples RTT from; PFC pause/resume frames are
// link-local control signals.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace src::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~0u;

enum class PacketKind : std::uint8_t {
  kData = 0,
  kCnp = 1,      ///< DCQCN congestion notification (routed back to sender)
  kPause = 2,    ///< PFC pause frame (link-local)
  kResume = 3,   ///< PFC resume frame (link-local)
  kDelayAck = 4, ///< timestamp echo for delay-based CC (routed to sender)
};

/// Every flow id is minted by its sending host from one counter as
/// (node + 1) << 40 | n: unique network-wide with no shared
/// counter, and the sender of any packet is recoverable from its flow id.
/// `id_base` is the counter's start (minted ids lie above it) and
/// `sender_of` its inverse; switch-made frames carry flow id 0, whose
/// sender is kInvalidNode.
inline constexpr std::uint64_t id_base(NodeId node) {
  return (static_cast<std::uint64_t>(node) + 1) << 40;
}
inline constexpr NodeId sender_of(std::uint64_t flow_id) {
  return static_cast<NodeId>((flow_id >> 40) - 1);
}

/// Opaque per-message application header: `Host::send_message` stamps it
/// on every fragment and the receiver's message handler hands it back. The
/// network never reads it.
struct MessageHeader {
  std::uint64_t word = 0;
  std::uint32_t key = 0;
  std::uint32_t length = 0;
};

// Field order is deliberate (widest first): the packet must stay within 48
// bytes so a link-delivery closure (peer pointer + port + packet) fits the
// scheduler's 64-byte inline callback buffer — per-hop delivery is the most
// frequent event in the simulator and must never hit the closure arena.
struct Packet {
  std::uint64_t flow_id = 0;  ///< minted by the sender (see `sender_of`)
  /// Send timestamp, stamped only when the flow's controller requests delay
  /// acks (`wants_delay_ack`); the receiver echoes it back in a kDelayAck so
  /// the sender can compute the RTT. Zero on all other traffic, so
  /// ECN/CNP-only congestion controls are byte-identical to before.
  common::SimTime sent_at = 0;
  MessageHeader header;  ///< data: the message's header, on every fragment
  NodeId dst = kInvalidNode;
  std::uint32_t bytes = 0;          ///< payload bytes (data) / frame size
  std::uint32_t tag = 0;            ///< application tag (fabric opcodes)
  /// Transient: ingress port index while buffered inside a switch (used for
  /// PFC per-ingress accounting). Not meaningful on the wire: the switch
  /// resets it when the packet leaves its buffer.
  std::int16_t ingress_port = -1;
  PacketKind kind = PacketKind::kData;
  bool ecn_marked : 1 = false;
  bool last_of_message : 1 = false;
  bool wants_delay_ack : 1 = false;
  /// Receiver CNP policy for this data packet: echo every ECN mark
  /// (DCTCP/Cubic ACK-echo style) instead of pacing on the DCQCN interval.
  bool echo_per_mark : 1 = false;

  /// Bytes occupying buffers and wire (payload + a fixed header).
  std::uint32_t wire_bytes() const { return bytes + kHeaderBytes; }

  static constexpr std::uint32_t kHeaderBytes = 64;
};

static_assert(sizeof(Packet) <= 48, "delivery closures must stay inline");

}  // namespace src::net

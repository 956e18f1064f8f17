// NVMe-oF wire protocol model: command capsules and data messages.
//
// Capsules occupy real bytes on the simulated wire, and a request rides in
// its messages' header (net::MessageHeader): a command carries the
// initiator-minted request key (`key`), the LBA (`word`) and the size
// (`length`), with the opcode tag giving the type; every response carries
// the key back. Hosts share no state: an initiator keeps one table of its
// own requests by key, and a target keeps only the initiator and key of
// each request it is serving, to address the reply.
//
// Retransmission correctness: the target serves whatever arrives — also a
// capsule a retry has superseded, and a request the initiator has given
// up on — and the initiator's table decides. The first response for a live
// key completes the request (an error completion schedules its retry
// instead) and removes the key, so every later response is a dead letter
// (`InitiatorStats::stale_messages`) and each request completes exactly
// once. A response is honoured whichever attempt it answers: a request is
// idempotent, and insisting on the latest attempt's response livelocks
// under congestion — when response queueing delay exceeds the retry
// timeout, every response arrives superseded, so the initiator retries
// forever. (Found by the chaos campaign's liveness checker; see DESIGN.md
// §12.)
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "net/packet.hpp"

namespace src::fabric {

using common::SimTime;

/// Message tags on the fabric (net::Packet::tag).
enum Opcode : std::uint32_t {
  kReadCmd = 1,    ///< initiator -> target: read command capsule
  kWriteCmd = 2,   ///< initiator -> target: write command capsule + data
  kReadData = 3,   ///< target -> initiator: read payload
  kWriteAck = 4,   ///< target -> initiator: write completion capsule
  kErrorComp = 5,  ///< target -> initiator: explicit error completion
};

/// NVMe-oF command capsule size (bytes on the wire).
inline constexpr std::uint32_t kCapsuleBytes = 64;

/// Per-request timeout/retry behaviour of an initiator. Disabled by
/// default: no timers are armed and no simulator events are scheduled, so
/// fault-free runs are bit-identical with or without the retry machinery
/// (scheduling even a never-firing event would shift event sequence
/// numbers and perturb tie-breaking).
struct RetryPolicy {
  bool enabled = false;
  /// Timeout for the first attempt; attempt n waits
  /// min(base_timeout * backoff_factor^n, max_timeout).
  SimTime base_timeout = 5 * common::kMillisecond;
  double backoff_factor = 2.0;
  SimTime max_timeout = 40 * common::kMillisecond;
  /// Retransmissions after the initial attempt; past this the request
  /// fails with an explicit error.
  std::uint32_t max_retries = 4;

  SimTime timeout_for(std::uint32_t attempt) const {
    double t = static_cast<double>(base_timeout);
    for (std::uint32_t i = 0; i < attempt; ++i) t *= backoff_factor;
    const double capped = std::min(t, static_cast<double>(max_timeout));
    return static_cast<SimTime>(capped);
  }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

}  // namespace src::fabric

// NVMe-oF initiator (compute node): replays a block trace against one or
// more targets, issuing read command capsules and write command+data
// messages at the trace's arrival times, and records completions.
//
// Per the paper's metric definitions, read throughput is measured here —
// as read-data bytes *received at the initiator* (binned into a 1 ms
// timeline) — while write throughput is measured at the target.
//
// Reliability: with a RetryPolicy enabled, every request arms a timeout
// timer; lost capsules/responses are retransmitted with capped exponential
// backoff, explicit error completions from the target are retried after a
// backoff, and requests that exhaust their retry budget fail with an
// explicit error status (they never hang). With the policy disabled (the
// default) no timers exist and the hot path is untouched.
//
// Request state is this initiator's alone: one table from the key its
// messages carry to the request (see fabric/protocol.hpp).
#pragma once

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/latency.hpp"
#include "common/stats.hpp"
#include "fabric/protocol.hpp"
#include "net/network.hpp"
#include "workload/trace.hpp"

namespace src::fabric {

struct InitiatorStats {
  std::uint64_t reads_issued = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t reads_failed = 0;   ///< retry budget exhausted (reads)
  std::uint64_t writes_failed = 0;  ///< retry budget exhausted (writes)
  std::uint64_t read_bytes_received = 0;
  std::uint64_t timeouts = 0;           ///< request timers that fired
  std::uint64_t retries = 0;            ///< command capsules re-sent
  std::uint32_t max_attempts = 0;       ///< most retransmissions any request saw
  std::uint64_t error_completions = 0;  ///< explicit error capsules received
  std::uint64_t stale_messages = 0;     ///< responses for no live request

  std::uint64_t requests_failed() const { return reads_failed + writes_failed; }

  common::LatencyRecorder read_latency;   ///< issue -> data fully received
  common::LatencyRecorder write_latency;  ///< issue -> ack received
};

class Initiator {
 public:
  /// Picks the target for a trace record (e.g. round-robin or LBA-hash).
  using TargetSelector =
      std::function<net::NodeId(const workload::TraceRecord&, std::size_t index)>;

  Initiator(net::Network& network, net::NodeId host_id);

  /// Schedule the whole trace for replay; records are issued at their
  /// arrival times (relative to now). With a max-outstanding limit set,
  /// records whose turn arrives while the limit is reached queue locally
  /// and issue as completions free slots (closed-loop behaviour). The
  /// selector runs once per record, in order, before this returns. The
  /// trace must be sorted by arrival (std::invalid_argument otherwise).
  void run_trace(const workload::Trace& trace, TargetSelector selector);

  /// Bound the number of in-flight requests (0 = unlimited, the default
  /// open-loop replay). Real initiators bound their queue depth; the limit
  /// applies to run_trace (direct issue() calls always go out).
  void set_max_outstanding(std::size_t limit) { max_outstanding_ = limit; }
  /// Requests issued and not yet completed or failed.
  std::size_t outstanding() const { return requests_.size(); }

  /// Enable/configure per-request timeout tracking and retransmission.
  /// Must be set before requests are issued.
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Issue a single request immediately. Returns its key.
  std::uint32_t issue(common::IoType type, std::uint64_t lba,
                      std::uint32_t bytes, net::NodeId target);

  net::NodeId node_id() const { return host_id_; }
  const InitiatorStats& stats() const { return stats_; }

  /// Read-data arrival timeline (1 ms bins).
  const common::ThroughputTimeline& read_timeline() const { return read_timeline_; }

  /// Every issued request reached a terminal state — completed, possibly
  /// via retries, or explicitly failed. Nothing is still in flight.
  bool all_complete() const {
    return stats_.reads_completed + stats_.reads_failed == stats_.reads_issued &&
           stats_.writes_completed + stats_.writes_failed == stats_.writes_issued;
  }

 private:
  /// One request from issue until it completes or fails.
  struct Request {
    common::IoType type = common::IoType::kRead;
    std::uint64_t lba = 0;
    std::uint32_t bytes = 0;
    net::NodeId target = net::kInvalidNode;
    common::SimTime issue_time = 0;
    std::uint32_t attempts = 0;  ///< retransmissions performed so far
    sim::EventId timer;          ///< timeout or delayed-resend event
  };

  void on_fabric_message(const net::MessageHeader& header, std::uint32_t tag);

  void issue_or_defer(const workload::TraceRecord& rec, net::NodeId target);
  void drain_deferred();

  /// Transmit (or retransmit) the command capsule for a request.
  void send_command(std::uint32_t key, const Request& request);
  void arm_timer(std::uint32_t key);
  void on_timeout(std::uint32_t key);
  /// Retry after `delay` (0 = immediately), or fail if the budget is gone.
  void attempt_retry(std::uint32_t key, common::SimTime delay);
  void resend(std::uint32_t key);
  void fail_request(std::uint32_t key);
  void finish_request(std::uint32_t key);

  net::Network& network_;
  net::NodeId host_id_;
  sim::Simulator& sim_;  ///< the host's kernel
  InitiatorStats stats_;
  common::ThroughputTimeline read_timeline_{common::kMillisecond};
  RetryPolicy retry_;
  std::size_t max_outstanding_ = 0;
  std::deque<std::pair<workload::TraceRecord, net::NodeId>> deferred_;
  common::FlatMap64<Request> requests_;  ///< live requests, by key
  std::uint32_t next_key_ = 0;           ///< last key minted
};

}  // namespace src::fabric

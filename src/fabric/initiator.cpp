#include "fabric/initiator.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace src::fabric {

Initiator::Initiator(net::Network& network, net::NodeId host_id,
                     FabricContext& context)
    : network_(network),
      host_id_(host_id),
      sim_(network.kernel_of(host_id)),
      context_(context) {
  net::Host& host = network_.host(host_id_);
  host.set_message_handler([this](net::NodeId src, std::uint64_t message_id,
                                  std::uint64_t bytes, std::uint32_t tag) {
    on_fabric_message(src, message_id, bytes, tag);
  });
  host.set_data_handler([this](net::NodeId, std::uint32_t bytes, std::uint32_t tag) {
    if (tag == kReadData) {
      read_timeline_.record(sim_.now(), bytes);
      stats_.read_bytes_received += bytes;
    }
  });
}

void Initiator::run_trace(const workload::Trace& trace, TargetSelector selector) {
  const common::SimTime base = sim_.now();
  // The selector runs now, once per record in order; the replay keeps its
  // own copy of the (record, target) list, since the caller's trace may
  // not outlive the run.
  auto replay = std::make_shared<
      std::vector<std::pair<workload::TraceRecord, net::NodeId>>>();
  replay->reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    replay->emplace_back(trace[i], selector(trace[i], i));
  }
  sim_.schedule_series(
      replay->size(),
      [replay, base](std::size_t i) { return base + (*replay)[i].first.arrival; },
      // srclint:capture-ok(the initiator lives as long as the rig's simulator)
      [this, replay](std::size_t i) {
        const auto& [rec, target] = (*replay)[i];
        issue_or_defer(rec, target);
      });
}

void Initiator::issue_or_defer(const workload::TraceRecord& rec,
                               net::NodeId target) {
  if (max_outstanding_ > 0 && outstanding_ >= max_outstanding_) {
    deferred_.emplace_back(rec, target);
    return;
  }
  issue(rec.type, rec.lba, rec.bytes, target);
}

void Initiator::drain_deferred() {
  while (!deferred_.empty() &&
         (max_outstanding_ == 0 || outstanding_ < max_outstanding_)) {
    const auto [rec, target] = deferred_.front();
    deferred_.pop_front();
    issue(rec.type, rec.lba, rec.bytes, target);
  }
}

std::uint64_t Initiator::issue(common::IoType type, std::uint64_t lba,
                               std::uint32_t bytes, net::NodeId target) {
  RequestInfo info;
  info.initiator = host_id_;
  info.target = target;
  info.type = type;
  info.lba = lba;
  info.bytes = bytes;
  info.issue_time = sim_.now();
  const std::uint64_t request_id = context_.new_request(info);
  info.id = request_id;
  ++outstanding_;

  if (type == common::IoType::kRead) {
    ++stats_.reads_issued;
    SRC_OBS_COUNT("fabric.reads_issued");
  } else {
    ++stats_.writes_issued;
    SRC_OBS_COUNT("fabric.writes_issued");
  }
  send_command(info);
  if (retry_.enabled) {
    pending_.emplace(request_id, Pending{});
    arm_timer(request_id);
  }
  return request_id;
}

void Initiator::send_command(const RequestInfo& info) {
  net::Host& host = network_.host(host_id_);
  std::uint64_t message_id = 0;
  if (info.type == common::IoType::kRead) {
    // Command capsules ride the command queue pair (channel 1) so they are
    // not queued behind throttled bulk write data.
    message_id = host.send_message(info.target, kCapsuleBytes, kReadCmd,
                                   /*channel=*/1);
  } else {
    // Write command capsule travels with the data (in-capsule data model).
    message_id = host.send_message(info.target, kCapsuleBytes + info.bytes,
                                   kWriteCmd, /*channel=*/0);
  }
  context_.bind_message(message_id, info.id);
}

void Initiator::arm_timer(std::uint64_t request_id) {
  Pending& pending = pending_.at(request_id);
  pending.timer = sim_.schedule_in(
      retry_.timeout_for(pending.attempts),
      // srclint:capture-ok(the initiator lives as long as the rig's simulator)
      [this, request_id] { on_timeout(request_id); });
}

void Initiator::on_timeout(std::uint64_t request_id) {
  if (!pending_.contains(request_id)) return;  // completed at the same tick
  ++stats_.timeouts;
  SRC_OBS_COUNT("fabric.timeouts");
  SRC_OBS_INSTANT("fabric", "timeout", sim_.now(),
                  static_cast<std::uint32_t>(host_id_),
                  static_cast<double>(request_id));
  attempt_retry(request_id, /*delay=*/0);
}

void Initiator::attempt_retry(std::uint64_t request_id, common::SimTime delay) {
  const auto it = pending_.find(request_id);
  if (!retry_.enabled || it == pending_.end() ||
      it->second.attempts >= retry_.max_retries) {
    fail_request(request_id);
    return;
  }
  Pending& pending = it->second;
  sim_.cancel(pending.timer);
  ++pending.attempts;
  ++stats_.retries;
  if (pending.attempts > stats_.max_attempts) {
    stats_.max_attempts = pending.attempts;
  }
  SRC_OBS_COUNT("fabric.retries");
  // Kill the superseded attempt's capsule binding so it cannot be served
  // twice. Response bindings survive on purpose: a response already under
  // way answers this same request, and discarding it livelocks the fabric
  // when response delay exceeds the retry timeout (see protocol.hpp).
  context_.expire_request_commands(request_id);
  if (delay == 0) {
    resend(request_id);
  } else {
    pending.timer = sim_.schedule_in(
        // srclint:capture-ok(the initiator lives as long as the rig's simulator)
        delay, [this, request_id] { resend(request_id); });
  }
}

void Initiator::resend(std::uint64_t request_id) {
  if (!pending_.contains(request_id) || !context_.has_request(request_id)) return;
  send_command(context_.request(request_id));
  arm_timer(request_id);
}

void Initiator::fail_request(std::uint64_t request_id) {
  if (!context_.has_request(request_id)) return;
  const RequestInfo info = context_.request(request_id);
  if (info.type == common::IoType::kRead) {
    ++stats_.reads_failed;
  } else {
    ++stats_.writes_failed;
  }
  SRC_OBS_COUNT("fabric.requests_failed");
  finish_request(request_id);
}

void Initiator::finish_request(std::uint64_t request_id) {
  if (const auto it = pending_.find(request_id); it != pending_.end()) {
    sim_.cancel(it->second.timer);
    pending_.erase(it);
  }
  context_.complete_request(request_id);  // also expires stale bindings
  if (outstanding_ > 0) --outstanding_;
  drain_deferred();
}

void Initiator::on_fabric_message(net::NodeId /*src*/, std::uint64_t message_id,
                                  std::uint64_t /*bytes*/, std::uint32_t tag) {
  if (tag != kReadData && tag != kWriteAck && tag != kErrorComp) return;
  const std::uint64_t request_id = context_.take_message_binding(message_id);
  if (request_id == kNoBinding || !context_.has_request(request_id)) {
    // Lost the race with our own retry (or the request already failed):
    // the delivery is a dead letter.
    ++stats_.stale_messages;
    SRC_OBS_COUNT("fabric.stale_messages");
    return;
  }

  if (tag == kErrorComp) {
    // Explicit error from the target (offline device / transient failure):
    // back off and retry, or fail once the budget is exhausted.
    ++stats_.error_completions;
    SRC_OBS_COUNT("fabric.error_completions");
    const auto it = pending_.find(request_id);
    const std::uint32_t attempts = it != pending_.end() ? it->second.attempts : 0;
    attempt_retry(request_id, retry_.timeout_for(attempts));
    return;
  }

  const RequestInfo& info = context_.request(request_id);
  const common::SimTime latency = sim_.now() - info.issue_time;
  if (tag == kReadData) {
    ++stats_.reads_completed;
    stats_.total_read_latency += latency;
    stats_.read_latency.record(latency);
    SRC_OBS_COUNT("fabric.reads_completed");
    SRC_OBS_LATENCY_US("fabric.read_latency_us", common::to_microseconds(latency));
    SRC_OBS_SPAN("fabric", "read", info.issue_time, latency,
                 static_cast<std::uint32_t>(host_id_),
                 static_cast<double>(info.bytes));
  } else {
    ++stats_.writes_completed;
    stats_.total_write_latency += latency;
    stats_.write_latency.record(latency);
    SRC_OBS_COUNT("fabric.writes_completed");
    SRC_OBS_LATENCY_US("fabric.write_latency_us", common::to_microseconds(latency));
    SRC_OBS_SPAN("fabric", "write", info.issue_time, latency,
                 static_cast<std::uint32_t>(host_id_),
                 static_cast<double>(info.bytes));
  }
  finish_request(request_id);
}

}  // namespace src::fabric

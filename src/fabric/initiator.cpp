#include "fabric/initiator.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace src::fabric {

Initiator::Initiator(net::Network& network, net::NodeId host_id)
    : network_(network), host_id_(host_id), sim_(network.kernel_of(host_id)) {
  net::Host& host = network_.host(host_id_);
  host.set_message_handler([this](net::NodeId, const net::MessageHeader& header,
                                  std::uint64_t, std::uint32_t tag) {
    on_fabric_message(header, tag);
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
  if (max_outstanding_ > 0 && outstanding() >= max_outstanding_) {
    deferred_.emplace_back(rec, target);
    return;
  }
  issue(rec.type, rec.lba, rec.bytes, target);
}

void Initiator::drain_deferred() {
  while (!deferred_.empty() &&
         (max_outstanding_ == 0 || outstanding() < max_outstanding_)) {
    const auto [rec, target] = deferred_.front();
    deferred_.pop_front();
    issue(rec.type, rec.lba, rec.bytes, target);
  }
}

std::uint32_t Initiator::issue(common::IoType type, std::uint64_t lba,
                               std::uint32_t bytes, net::NodeId target) {
  const std::uint32_t key = ++next_key_;
  Request request;
  request.type = type;
  request.lba = lba;
  request.bytes = bytes;
  request.target = target;
  request.issue_time = sim_.now();
  requests_.insert_or_assign(key, request);

  if (type == common::IoType::kRead) {
    ++stats_.reads_issued;
    SRC_OBS_COUNT("fabric.reads_issued");
  } else {
    ++stats_.writes_issued;
    SRC_OBS_COUNT("fabric.writes_issued");
  }
  send_command(key, request);
  if (retry_.enabled) arm_timer(key);
  return key;
}

void Initiator::send_command(std::uint32_t key, const Request& request) {
  net::Host& host = network_.host(host_id_);
  const net::MessageHeader header{.word = request.lba, .key = key,
                                  .length = request.bytes};
  if (request.type == common::IoType::kRead) {
    // Command capsules ride the command queue pair (channel 1) so they are
    // not queued behind throttled bulk write data.
    host.send_message(request.target, kCapsuleBytes, kReadCmd, /*channel=*/1,
                      header);
  } else {
    // Write command capsule travels with the data (in-capsule data model).
    host.send_message(request.target, kCapsuleBytes + request.bytes, kWriteCmd,
                      /*channel=*/0, header);
  }
}

void Initiator::arm_timer(std::uint32_t key) {
  Request& request = *requests_.find(key);
  request.timer = sim_.schedule_in(
      retry_.timeout_for(request.attempts),
      // srclint:capture-ok(the initiator lives as long as the rig's simulator)
      [this, key] { on_timeout(key); });
}

void Initiator::on_timeout(std::uint32_t key) {
  if (requests_.find(key) == nullptr) return;  // completed at the same tick
  ++stats_.timeouts;
  SRC_OBS_COUNT("fabric.timeouts");
  SRC_OBS_INSTANT("fabric", "timeout", sim_.now(),
                  static_cast<std::uint32_t>(host_id_), static_cast<double>(key));
  attempt_retry(key, /*delay=*/0);
}

void Initiator::attempt_retry(std::uint32_t key, common::SimTime delay) {
  Request* request = requests_.find(key);
  if (request == nullptr) return;
  if (!retry_.enabled || request->attempts >= retry_.max_retries) {
    fail_request(key);
    return;
  }
  sim_.cancel(request->timer);
  ++request->attempts;
  ++stats_.retries;
  if (request->attempts > stats_.max_attempts) {
    stats_.max_attempts = request->attempts;
  }
  SRC_OBS_COUNT("fabric.retries");
  // The superseded attempt's capsule may still be served; whichever
  // response arrives first completes the request (see protocol.hpp).
  if (delay == 0) {
    resend(key);
  } else {
    request->timer = sim_.schedule_in(
        // srclint:capture-ok(the initiator lives as long as the rig's simulator)
        delay, [this, key] { resend(key); });
  }
}

void Initiator::resend(std::uint32_t key) {
  const Request* request = requests_.find(key);
  if (request == nullptr) return;
  send_command(key, *request);
  arm_timer(key);
}

void Initiator::fail_request(std::uint32_t key) {
  const Request* request = requests_.find(key);
  if (request == nullptr) return;
  if (request->type == common::IoType::kRead) {
    ++stats_.reads_failed;
  } else {
    ++stats_.writes_failed;
  }
  SRC_OBS_COUNT("fabric.requests_failed");
  finish_request(key);
}

void Initiator::finish_request(std::uint32_t key) {
  sim_.cancel(requests_.find(key)->timer);
  requests_.erase(key);
  drain_deferred();
}

void Initiator::on_fabric_message(const net::MessageHeader& header,
                                  std::uint32_t tag) {
  if (tag != kReadData && tag != kWriteAck && tag != kErrorComp) return;
  const std::uint32_t key = header.key;
  const Request* request = requests_.find(key);
  if (request == nullptr) {
    // The request already completed or failed: a straggling capsule was
    // served after a retry, or the target answered after we gave up.
    ++stats_.stale_messages;
    SRC_OBS_COUNT("fabric.stale_messages");
    return;
  }

  if (tag == kErrorComp) {
    // Explicit error from the target (offline device / transient failure):
    // back off and retry, or fail once the budget is exhausted.
    ++stats_.error_completions;
    SRC_OBS_COUNT("fabric.error_completions");
    attempt_retry(key, retry_.timeout_for(request->attempts));
    return;
  }

  const common::SimTime latency = sim_.now() - request->issue_time;
  if (tag == kReadData) {
    ++stats_.reads_completed;
    stats_.read_latency.record(latency);
    SRC_OBS_COUNT("fabric.reads_completed");
    SRC_OBS_LATENCY_US("fabric.read_latency_us", latency);
    SRC_OBS_SPAN("fabric", "read", request->issue_time, latency,
                 static_cast<std::uint32_t>(host_id_),
                 static_cast<double>(request->bytes));
  } else {
    ++stats_.writes_completed;
    stats_.write_latency.record(latency);
    SRC_OBS_COUNT("fabric.writes_completed");
    SRC_OBS_LATENCY_US("fabric.write_latency_us", latency);
    SRC_OBS_SPAN("fabric", "write", request->issue_time, latency,
                 static_cast<std::uint32_t>(host_id_),
                 static_cast<double>(request->bytes));
  }
  finish_request(key);
}

}  // namespace src::fabric

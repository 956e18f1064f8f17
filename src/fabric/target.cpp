#include "fabric/target.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace src::fabric {

Target::Target(net::Network& network, net::NodeId host_id, TargetConfig config)
    : network_(network),
      host_id_(host_id),
      sim_(network.kernel_of(host_id)),
      config_(std::move(config)) {
  if (config_.device_count == 0) {
    throw std::invalid_argument("Target: need at least one device");
  }

  for (std::size_t i = 0; i < config_.device_count; ++i) {
    devices_.push_back(std::make_unique<ssd::SsdDevice>(
        sim_, config_.ssd, config_.seed + i * 7919));
    if (config_.driver_mode == DriverMode::kSsq) {
      drivers_.push_back(std::make_unique<nvme::SsqDriver>(sim_, *devices_.back()));
    } else {
      drivers_.push_back(std::make_unique<nvme::FifoDriver>(sim_, *devices_.back()));
    }
    drivers_.back()->set_completion_handler(
        [this](const nvme::IoRequest& request, const ssd::NvmeCompletion& completion) {
          on_request_complete(request, completion);
        });
    // Tracer lane = target node id * 64 + device index: deterministic and
    // unique across a multi-target topology (targets own <= 64 devices).
    const auto lane =
        static_cast<std::uint32_t>(host_id_) * 64 + static_cast<std::uint32_t>(i);
    drivers_.back()->set_trace_lane(lane);
    devices_.back()->set_trace_lane(lane);
  }
  online_.assign(config_.device_count, true);

  net::Host& host = network_.host(host_id_);
  host.set_message_handler([this](net::NodeId src, const net::MessageHeader& header,
                                  std::uint64_t, std::uint32_t tag) {
    on_fabric_message(src, header, tag);
  });
  host.set_pause_handler([this] {
    ++stats_.pauses_received;
    ++stats_.congestion_signals;
    SRC_OBS_COUNT("fabric.congestion_signals");
    pause_timeline_.record(sim_.now());
  });
  host.set_rate_change_handler([this](net::NodeId, common::Rate, bool decrease) {
    if (decrease) {
      ++stats_.congestion_signals;
      SRC_OBS_COUNT("fabric.congestion_signals");
      pause_timeline_.record(sim_.now());
    }
    if (signal_loss_) {
      ++stats_.signals_suppressed;
      SRC_OBS_COUNT("fabric.signals_suppressed");
      return;
    }
    if (on_congestion_) {
      // The demanded data sending rate is what DCQCN currently grants this
      // target across its active flows.
      on_congestion_(network_.host(host_id_).total_allowed_rate(), decrease);
    }
  });
}

nvme::SsqDriver* Target::ssq_driver(std::size_t i) {
  return config_.driver_mode == DriverMode::kSsq
             ? static_cast<nvme::SsqDriver*>(drivers_.at(i).get())
             : nullptr;
}

void Target::set_weight_ratio(std::uint32_t w) {
  if (config_.driver_mode != DriverMode::kSsq) return;
  for (auto& driver : drivers_) {
    static_cast<nvme::SsqDriver&>(*driver).set_weight_ratio(w);
  }
}

void Target::set_device_online(std::size_t i, bool online) {
  online_.at(i) = online;
  devices_.at(i)->set_offline(!online);
}

std::size_t Target::online_device_count() const {
  std::size_t n = 0;
  for (const bool up : online_) n += up;
  return n;
}

std::size_t Target::device_for(std::uint64_t lba) {
  // Stripe whole requests across the flash array by address; linear-probe
  // past offline devices so the array degrades instead of black-holing a
  // slice of the address space.
  const std::size_t base = (lba / (1ull << 20)) % devices_.size();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const std::size_t idx = (base + i) % devices_.size();
    if (online_[idx]) {
      if (i != 0) ++stats_.rerouted_requests;
      return idx;
    }
  }
  return kNoDevice;
}

void Target::send_error_completion(ReplyTo reply) {
  ++stats_.errors_returned;
  // Error capsules ride the command channel like write acks.
  network_.host(host_id_).send_message(reply.initiator, kCapsuleBytes, kErrorComp,
                                       /*channel=*/1, {.key = reply.key});
}

void Target::on_fabric_message(net::NodeId src, const net::MessageHeader& header,
                               std::uint32_t tag) {
  if (tag != kReadCmd && tag != kWriteCmd) return;
  SRC_OBS_COUNT("fabric.capsules_received");
  const ReplyTo reply{src, header.key};

  const std::size_t device = device_for(header.word);
  if (device == kNoDevice) {
    // Whole array offline: reject explicitly instead of dropping the work.
    send_error_completion(reply);
    return;
  }

  nvme::IoRequest request;
  request.id = ++next_request_id_;
  request.type = tag == kReadCmd ? common::IoType::kRead : common::IoType::kWrite;
  request.lba = header.word;
  request.bytes = header.length;
  request.arrival = sim_.now();
  serving_.insert_or_assign(request.id, reply);
  if (on_submit_) on_submit_(request);
  drivers_[device]->submit(request);
}

void Target::on_request_complete(const nvme::IoRequest& request,
                                 const ssd::NvmeCompletion& completion) {
  const ReplyTo reply = *serving_.find(request.id);
  serving_.erase(request.id);

  if (!completion.ok()) {
    // Failed or offline device: explicit error completion, never silence.
    send_error_completion(reply);
    return;
  }

  net::Host& host = network_.host(host_id_);
  if (request.type == common::IoType::kRead) {
    ++stats_.reads_served;
    stats_.read_bytes += request.bytes;
    SRC_OBS_COUNT("fabric.reads_served");
    // Ship the data back: this is the inbound flow DCQCN throttles.
    host.send_message(reply.initiator, request.bytes, kReadData, /*channel=*/0,
                      {.key = reply.key});
  } else {
    ++stats_.writes_served;
    stats_.write_bytes += request.bytes;
    SRC_OBS_COUNT("fabric.writes_served");
    if (on_write_complete_) {
      on_write_complete_(sim_.now(), request.bytes);
    }
    // Acks ride the command channel so read-data backlog cannot delay them.
    host.send_message(reply.initiator, kCapsuleBytes, kWriteAck, /*channel=*/1,
                      {.key = reply.key});
  }
}

}  // namespace src::fabric

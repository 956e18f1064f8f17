#include "nvme/driver.hpp"

namespace src::nvme {

void NvmeDriver::dispatch(const IoRequest& request) {
  if (on_dispatch_) on_dispatch_(request);
  const std::uint64_t cmd_id = ++next_command_id_;
  outstanding_.insert_or_assign(cmd_id, request);

  ++in_flight_;
  if (request.type == IoType::kRead) {
    ++in_flight_reads_;
    ++stats_.submitted_reads;
    SRC_OBS_COUNT("nvme.dispatched_reads");
  } else {
    ++in_flight_writes_;
    ++stats_.submitted_writes;
    SRC_OBS_COUNT("nvme.dispatched_writes");
  }
  SRC_OBS_TRACE_COUNTER("nvme", "driver.in_flight", sim_.now(), trace_lane_,
                        static_cast<double>(in_flight_));

  ssd::NvmeCommand cmd;
  cmd.id = cmd_id;
  cmd.type = request.type;
  cmd.lba = request.lba;
  cmd.bytes = request.bytes;
  cmd.submit_time = request.arrival;
  cmd.fetch_time = sim_.now();

  // srclint:capture-ok(driver and device share the rig's simulator lifetime)
  device_.execute(cmd, [this](const ssd::NvmeCompletion& completion) {
    const IoRequest original = *outstanding_.find(completion.id);
    outstanding_.erase(completion.id);

    --in_flight_;
    if (!completion.ok()) {
      ++stats_.io_errors;
      SRC_OBS_COUNT("nvme.io_errors");
    }
    const common::SimTime latency = completion.complete_time - original.arrival;
    if (completion.type == IoType::kRead) {
      --in_flight_reads_;
      ++stats_.completed_reads;
      stats_.completed_read_bytes += completion.bytes;
      stats_.read_latency.record(latency);
      SRC_OBS_COUNT("nvme.completed_reads");
      SRC_OBS_LATENCY_US("nvme.read_latency_us", latency);
      SRC_OBS_SPAN("nvme", "read", original.arrival, latency, trace_lane_,
                   static_cast<double>(completion.bytes));
    } else {
      --in_flight_writes_;
      ++stats_.completed_writes;
      stats_.completed_write_bytes += completion.bytes;
      stats_.write_latency.record(latency);
      SRC_OBS_COUNT("nvme.completed_writes");
      SRC_OBS_LATENCY_US("nvme.write_latency_us", latency);
      SRC_OBS_SPAN("nvme", "write", original.arrival, latency, trace_lane_,
                   static_cast<double>(completion.bytes));
    }

    if (on_complete_) on_complete_(original, completion);
    try_fetch();
  });
}

}  // namespace src::nvme

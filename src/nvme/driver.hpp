// NVMe driver abstraction: the queueing layer between the NVMe-oF target
// driver and the SSD device. Concrete policies:
//   * FifoDriver — the default single-SQ FIFO behaviour (Fig. 4-a),
//   * SsqDriver  — the paper's separate-submission-queue mechanism with
//                  token-based weighted round-robin (Fig. 4-b).
// All drivers respect the device queue depth: at most QD commands are
// outstanding on the device at any time.
#pragma once

#include <cstdint>
#include <functional>

#include "common/flat_map.hpp"
#include "common/latency.hpp"
#include "common/types.hpp"
#include "nvme/io_request.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "ssd/device.hpp"

namespace src::nvme {

struct DriverStats {
  std::uint64_t accepted_reads = 0;   ///< enqueued into a submission queue
  std::uint64_t accepted_writes = 0;
  std::uint64_t submitted_reads = 0;  ///< fetched (dispatched) to the device
  std::uint64_t submitted_writes = 0;
  std::uint64_t completed_reads = 0;
  std::uint64_t completed_writes = 0;
  std::uint64_t completed_read_bytes = 0;
  std::uint64_t completed_write_bytes = 0;
  std::uint64_t io_errors = 0;  ///< completions with a non-success status
  common::LatencyRecorder read_latency;   ///< submit -> complete
  common::LatencyRecorder write_latency;
};

/// The device admission gate for one submission queue's front request,
/// memoised. A closed answer stays valid until now() passes the instant the
/// device reported (chip free-at times never decrease) or the front's LBA
/// range changes; only then is the gate evaluated again. Open answers are
/// never reused: a dispatch at the same instant can close the gate.
class AdmissionGate {
 public:
  bool open(const ssd::SsdDevice& device, const IoRequest& front,
            common::SimTime now) {
    if (now <= closed_until_ && front.lba == lba_ && front.bytes == bytes_) {
      return false;
    }
    lba_ = front.lba;
    bytes_ = front.bytes;
    closed_until_ = device.admission_closed_until(front.lba, front.bytes);
    return closed_until_ < now;
  }

  /// First instant the cached closed answer for `front` may turn open:
  /// closed_until + 1. kTimeInfinity when no closed answer for this front
  /// holds at `now` (the last answer was open), or when the gate never
  /// reopens.
  common::SimTime reopens_at(const IoRequest& front, common::SimTime now) const {
    if (now > closed_until_ || front.lba != lba_ || front.bytes != bytes_ ||
        closed_until_ == common::kTimeInfinity) {
      return common::kTimeInfinity;
    }
    return closed_until_ + 1;
  }

 private:
  std::uint64_t lba_ = 0;
  std::uint32_t bytes_ = 0;
  common::SimTime closed_until_ = -1;
};

class NvmeDriver {
 public:
  /// Invoked at completion time with the original request and the device
  /// completion entry.
  using CompletionFn =
      std::function<void(const IoRequest&, const ssd::NvmeCompletion&)>;

  NvmeDriver(sim::Simulator& sim, ssd::SsdDevice& device)
      : sim_(sim), device_(device) {}
  virtual ~NvmeDriver() = default;

  NvmeDriver(const NvmeDriver&) = delete;
  NvmeDriver& operator=(const NvmeDriver&) = delete;

  void set_completion_handler(CompletionFn fn) { on_complete_ = std::move(fn); }

  /// Invoked when a request is fetched from a submission queue to the
  /// device — i.e., in the order the device executes commands.
  using DispatchFn = std::function<void(const IoRequest&)>;
  void set_dispatch_handler(DispatchFn fn) { on_dispatch_ = std::move(fn); }

  /// Invoked when a request is accepted into a submission queue, before the
  /// policy sees it. Purely observational (the runtime invariant checkers
  /// pair it with the dispatch handler to verify fetch ordering); installing
  /// one must not change behaviour.
  using SubmitFn = std::function<void(const IoRequest&)>;
  void set_submit_probe(SubmitFn fn) { on_submit_ = std::move(fn); }

  /// Enqueue a request; the driver fetches it to the device when queue-depth
  /// and arbitration policy allow.
  void submit(IoRequest request) {
    if (request.type == IoType::kRead) {
      ++stats_.accepted_reads;
    } else {
      ++stats_.accepted_writes;
    }
    if (on_submit_) on_submit_(request);
    do_submit(std::move(request));
  }

  /// Number of requests waiting in submission queues (not yet fetched).
  virtual std::size_t queued() const = 0;

  std::uint32_t in_flight() const { return in_flight_; }
  std::uint32_t in_flight_reads() const { return in_flight_reads_; }
  std::uint32_t in_flight_writes() const { return in_flight_writes_; }
  const DriverStats& stats() const { return stats_; }
  std::uint32_t queue_depth() const { return device_.config().queue_depth; }

  /// Instant of the pending admission wake-up; kTimeInfinity when none.
  common::SimTime next_wake() const {
    return wake_.valid() ? wake_time_ : common::kTimeInfinity;
  }

  /// Deterministic lane id for the event tracer (set by the owning target:
  /// node id and device index). Purely observational.
  void set_trace_lane(std::uint32_t lane) { trace_lane_ = lane; }
  std::uint32_t trace_lane() const { return trace_lane_; }

 protected:
  /// Hand a request to the device; called by subclasses from their fetch
  /// logic. Tracks in-flight counts and re-enters fetch on completion.
  void dispatch(const IoRequest& request);

  /// Policy half of submit(): enqueue into the subclass's submission
  /// queue(s) and kick the fetch loop.
  virtual void do_submit(IoRequest request) = 0;

  /// Subclass fetch loop: pull eligible requests from SQs until the policy
  /// or the queue depth stops it.
  virtual void try_fetch() = 0;

  /// Device admission gate for the front request of the submission queue
  /// that owns `gate`.
  bool admissible(const IoRequest& front, AdmissionGate& gate) const {
    return gate.open(device_, front, sim_.now());
  }

  /// Called by a fetch loop that stalled with work still queued: re-runs
  /// try_fetch at `at`, the earliest `reopens_at` over the gates that
  /// refused a front. Nothing is scheduled when no gate will reopen
  /// (kTimeInfinity) or the queue depth is full: a stall on the depth or a
  /// per-type cap ends with a completion, which re-runs try_fetch itself.
  /// At most one wake is pending; a sooner instant moves it earlier.
  void wake_at(common::SimTime at) {
    if (at == common::kTimeInfinity || in_flight_ >= queue_depth()) return;
    if (wake_.valid()) {
      if (wake_time_ <= at) return;
      sim_.cancel(wake_);
    }
    wake_time_ = at;
    // srclint:capture-ok(driver and simulator share the rig lifetime)
    wake_ = sim_.schedule_at(at, [this] {
      wake_ = {};
      try_fetch();
    });
  }

  sim::Simulator& sim_;
  ssd::SsdDevice& device_;

 private:
  CompletionFn on_complete_;
  DispatchFn on_dispatch_;
  SubmitFn on_submit_;
  DriverStats stats_;
  std::uint32_t trace_lane_ = 0;
  sim::EventId wake_;  ///< pending admission wake-up, if any
  common::SimTime wake_time_ = 0;
  std::uint32_t in_flight_ = 0;
  std::uint32_t in_flight_reads_ = 0;
  std::uint32_t in_flight_writes_ = 0;
  std::uint64_t next_command_id_ = 0;
  // Maps command id -> original request for completion reporting.
  common::FlatMap64<IoRequest> outstanding_;
};

}  // namespace src::nvme

// NVMe-oF target (storage node): receives command capsules from the
// fabric, submits them to its NVMe driver(s)/SSD(s), and returns read data
// or write acknowledgments. A target may hold several SSD instances (a
// flash array); requests are striped across devices by LBA hash.
//
// A target reads each request from its command capsule and serves every
// capsule that arrives (see fabric/protocol.hpp); it keeps only the
// initiator and key of each request it is serving, to address the reply.
//
// Congestion-control plumbing: every DCQCN rate change on this host's
// outgoing (read-data) flows, and every PFC pause frame, is surfaced
// through callbacks — the hooks the SRC controller attaches to.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "fabric/protocol.hpp"
#include "net/network.hpp"
#include "nvme/driver.hpp"
#include "nvme/fifo_driver.hpp"
#include "nvme/ssq_driver.hpp"
#include "ssd/device.hpp"

namespace src::fabric {

/// Which NVMe driver queueing policy a target uses.
enum class DriverMode { kFifo, kSsq };

struct TargetConfig {
  ssd::SsdConfig ssd;
  DriverMode driver_mode = DriverMode::kFifo;
  std::size_t device_count = 1;
  std::uint64_t seed = 1;
};

struct TargetStats {
  std::uint64_t reads_served = 0;
  std::uint64_t writes_served = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t pauses_received = 0;      ///< PFC pause frames
  std::uint64_t congestion_signals = 0;   ///< CNP-driven rate cuts + pauses
  std::uint64_t errors_returned = 0;      ///< explicit error completions sent
  std::uint64_t rerouted_requests = 0;    ///< re-striped around offline devices
  std::uint64_t signals_suppressed = 0;   ///< congestion signals lost (fault)
};

class Target {
 public:
  /// Congestion event from the network layer: current allowed sending rate
  /// of this target's flows and whether this was a cut (pause-like) or a
  /// recovery (retrieval-like) event.
  using CongestionListener = std::function<void(common::Rate demanded, bool decrease)>;
  /// A request was submitted to the NVMe layer (the SRC workload monitor
  /// taps this).
  using SubmitListener = std::function<void(const nvme::IoRequest&)>;
  /// Write completed on this target's SSD (write throughput is measured at
  /// targets, per the paper's metric).
  using WriteCompleteListener = std::function<void(SimTime when, std::uint32_t bytes)>;

  Target(net::Network& network, net::NodeId host_id, TargetConfig config);

  net::NodeId node_id() const { return host_id_; }
  const TargetStats& stats() const { return stats_; }
  std::size_t device_count() const { return devices_.size(); }
  ssd::SsdDevice& device(std::size_t i) { return *devices_.at(i); }
  nvme::NvmeDriver& driver(std::size_t i) { return *drivers_.at(i); }

  /// Non-null only in SSQ mode.
  nvme::SsqDriver* ssq_driver(std::size_t i);

  /// Set the write weight ratio on every SSQ driver (no-op in FIFO mode).
  void set_weight_ratio(std::uint32_t w);

  /// Fault injection: take one device of the flash array offline (new
  /// requests re-stripe to the remaining online devices; the device itself
  /// rejects anything already queued for it) or bring it back.
  void set_device_online(std::size_t i, bool online);
  bool device_online(std::size_t i) const { return online_.at(i); }
  std::size_t online_device_count() const;

  /// Fault injection: while set, congestion signals from the network layer
  /// are not forwarded to the congestion listener (models a lost/partitioned
  /// control plane; the SRC controller's staleness watchdog covers this).
  void set_signal_loss(bool lost) { signal_loss_ = lost; }
  bool signal_loss() const { return signal_loss_; }

  void set_congestion_listener(CongestionListener fn) { on_congestion_ = std::move(fn); }
  void set_submit_listener(SubmitListener fn) { on_submit_ = std::move(fn); }
  void set_write_complete_listener(WriteCompleteListener fn) {
    on_write_complete_ = std::move(fn);
  }

  /// Timeline of congestion signals received — PFC pause frames plus
  /// CNP-driven DCQCN rate cuts — in 1 ms bins (the paper's "pause number"
  /// metric, Fig. 8).
  const common::EventTimeline& pause_timeline() const { return pause_timeline_; }

 private:
  /// Where the reply to a request being served goes.
  struct ReplyTo {
    net::NodeId initiator = net::kInvalidNode;
    std::uint32_t key = 0;  ///< the initiator's request key
  };

  void on_fabric_message(net::NodeId src, const net::MessageHeader& header,
                         std::uint32_t tag);
  void on_request_complete(const nvme::IoRequest& request,
                           const ssd::NvmeCompletion& completion);
  /// Stripe by LBA over online devices; npos when the whole array is down.
  std::size_t device_for(std::uint64_t lba);
  void send_error_completion(ReplyTo reply);

  static constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);

  net::Network& network_;
  net::NodeId host_id_;
  sim::Simulator& sim_;  ///< the host's kernel
  TargetConfig config_;
  std::vector<std::unique_ptr<ssd::SsdDevice>> devices_;
  std::vector<std::unique_ptr<nvme::NvmeDriver>> drivers_;
  std::vector<bool> online_;
  bool signal_loss_ = false;
  /// Requests being served, by the IoRequest::id this target minted (ids
  /// are unique per target, hence per driver).
  common::FlatMap64<ReplyTo> serving_;
  std::uint64_t next_request_id_ = 0;  ///< last IoRequest::id minted
  TargetStats stats_;
  common::EventTimeline pause_timeline_{common::kMillisecond};
  CongestionListener on_congestion_;
  SubmitListener on_submit_;
  WriteCompleteListener on_write_complete_;
};

}  // namespace src::fabric

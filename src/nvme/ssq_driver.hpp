// Separate Submission Queue driver (paper Fig. 4-b and §III-A).
//
// Reads are enqueued to RSQ and writes to WSQ (unless the consistency
// checker pins a request to the queue holding an overlapping earlier
// request). A token-based weighted round-robin arbiter fetches commands:
// each queue holds `weight` tokens; fetching a command charges one token of
// the queue matching the command's *I/O type* (the paper's rule for
// consistency-redirected commands); when the needed token pool is empty the
// tokens are reset to the configured weights. When one SQ is empty the
// arbiter fetches from the other without touching tokens ("borrowing").
//
// The device queue depth is partitioned between the two types proportional
// to the weight ratio; the per-type cap may be exceeded only while the other
// queue is empty. At queue depth 1 the two types share the one slot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

#include "nvme/consistency.hpp"
#include "nvme/driver.hpp"

namespace src::nvme {

struct SsqStats {
  std::uint64_t fetched_from_rsq = 0;
  std::uint64_t fetched_from_wsq = 0;
  std::uint64_t borrowed_fetches = 0;       ///< fetched while other SQ empty
  std::uint64_t consistency_redirects = 0;  ///< requests pinned off-type
  std::uint64_t token_resets = 0;
  std::uint64_t weight_adjustments = 0;
  // Monotone token ledger for conservation checking (src/verify). Pools are
  // reset from the weights, never topped up, so at any instant:
  //   tokens_charged == fetched_from_rsq + fetched_from_wsq - borrowed_fetches
  //   tokens_charged <= tokens_granted
  //   read_tokens() + write_tokens() <= tokens_granted - tokens_charged
  // (discarded leftovers from a reset only widen the slack, and set_weights
  // deliberately leaves the live pools alone).
  std::uint64_t tokens_granted = 0;  ///< pool refills, summed over both pools
  std::uint64_t tokens_charged = 0;  ///< WRR fetches that consumed a token
};

class SsqDriver final : public NvmeDriver {
 public:
  SsqDriver(sim::Simulator& sim, ssd::SsdDevice& device,
            std::uint32_t read_weight = 1, std::uint32_t write_weight = 1)
      : NvmeDriver(sim, device),
        consistency_(device.config().page_bytes) {
    set_weights(read_weight, write_weight);
    tokens_read_ = read_weight_;
    tokens_write_ = write_weight_;
    ssq_stats_.tokens_granted = read_weight_ + write_weight_;
  }

  /// Set the WRR weights. The paper fixes the read weight at 1 and varies
  /// the write weight, expressed as the weight ratio w = write/read >= 1.
  void set_weights(std::uint32_t read_weight, std::uint32_t write_weight) {
    read_weight_ = std::max<std::uint32_t>(1, read_weight);
    write_weight_ = std::max<std::uint32_t>(1, write_weight);
    ++ssq_stats_.weight_adjustments;
    SRC_OBS_COUNT("nvme.ssq.weight_adjustments");
    SRC_OBS_TRACE_COUNTER("nvme", "ssq.weight_ratio", sim_.now(), trace_lane(),
                          weight_ratio());
    recompute_qd_partition();
    try_fetch();
  }

  void set_weight_ratio(std::uint32_t w) { set_weights(1, w); }

  /// Disable the LBA consistency checker (ablation only: dependent requests
  /// may then be reordered across RSQ/WSQ).
  void set_consistency_checking(bool enabled) { consistency_enabled_ = enabled; }
  bool consistency_checking() const { return consistency_enabled_; }

  double weight_ratio() const {
    return static_cast<double>(write_weight_) / static_cast<double>(read_weight_);
  }
  std::uint32_t read_weight() const { return read_weight_; }
  std::uint32_t write_weight() const { return write_weight_; }
  std::uint32_t read_qd_cap() const { return qd_cap_read_; }
  std::uint32_t write_qd_cap() const { return qd_cap_write_; }
  std::uint32_t read_tokens() const { return tokens_read_; }
  std::uint32_t write_tokens() const { return tokens_write_; }

  std::size_t rsq_depth() const { return rsq_.size(); }
  std::size_t wsq_depth() const { return wsq_.size(); }
  std::size_t queued() const override { return rsq_.size() + wsq_.size(); }
  const SsqStats& ssq_stats() const { return ssq_stats_; }

 private:
  void do_submit(IoRequest request) override {
    QueueKind kind = natural_queue(request.type);
    if (consistency_enabled_) {
      const QueueKind routed = consistency_.route(request.lba, request.bytes, kind);
      if (routed != kind) ++ssq_stats_.consistency_redirects;
      kind = routed;
    }
    if (kind == QueueKind::kReadQueue) {
      rsq_.push_back(std::move(request));
    } else {
      wsq_.push_back(std::move(request));
    }
    try_fetch();
  }

  void recompute_qd_partition() {
    const std::uint32_t qd = queue_depth();
    if (qd < 2) {
      // One slot cannot be split: both types share it (each cap is the
      // whole depth) and WRR alone orders the fetches.
      qd_cap_read_ = qd;
      qd_cap_write_ = qd;
      return;
    }
    const double total = static_cast<double>(read_weight_ + write_weight_);
    qd_cap_write_ = std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(
            static_cast<double>(qd) * static_cast<double>(write_weight_) / total +
            0.5),
        1, qd - 1);
    qd_cap_read_ = qd - qd_cap_write_;
  }

  // The per-type queue-depth partition is a hard cap on parallel
  // processing (paper: "the number of write and read commands that will be
  // processed in parallel on SSDs follows the weight ratio"). A type may
  // exceed its share only when the other type is completely idle (empty SQ
  // and nothing in flight) — the device model's chip queues are
  // non-preemptive, so over-admitting reads while writes merely *pause*
  // would let stale read backlogs starve later writes and defeat the
  // throughput control.
  bool queue_eligible(QueueKind kind) {
    if (kind == QueueKind::kReadQueue) {
      if (rsq_.empty()) return false;
      if (!admissible(rsq_.front(), rsq_gate_)) return false;
      return in_flight_reads() < qd_cap_read_ || wsq_.empty();
    }
    if (wsq_.empty()) return false;
    if (!admissible(wsq_.front(), wsq_gate_)) return false;
    return in_flight_writes() < qd_cap_write_ || rsq_.empty();
  }

  /// Charge one token for a command of the given I/O type, resetting both
  /// pools from the weights when the needed pool is exhausted.
  void charge_token(IoType type) {
    std::uint32_t& pool = type == IoType::kRead ? tokens_read_ : tokens_write_;
    if (pool == 0) {
      tokens_read_ = read_weight_;
      tokens_write_ = write_weight_;
      ssq_stats_.tokens_granted += read_weight_ + write_weight_;
      ++ssq_stats_.token_resets;
      SRC_OBS_COUNT("nvme.ssq.token_resets");
    }
    --pool;
    ++ssq_stats_.tokens_charged;
  }

  void try_fetch() override {
    while (in_flight() < queue_depth()) {
      const bool read_ok = queue_eligible(QueueKind::kReadQueue);
      const bool write_ok = queue_eligible(QueueKind::kWriteQueue);
      if (!read_ok && !write_ok) {
        // Each non-empty queue's gate was just evaluated for its front; a
        // queue refused only by its cap contributes no instant.
        common::SimTime at = common::kTimeInfinity;
        if (!rsq_.empty()) at = rsq_gate_.reopens_at(rsq_.front(), sim_.now());
        if (!wsq_.empty()) {
          at = std::min(at, wsq_gate_.reopens_at(wsq_.front(), sim_.now()));
        }
        wake_at(at);
        return;
      }

      QueueKind pick;
      bool borrow = false;
      if (read_ok && write_ok) {
        // Both queues have work: WRR order. Writes (the prioritized class,
        // w >= 1) drain their tokens first, then reads, then reset.
        if (tokens_write_ == 0 && tokens_read_ == 0) {
          tokens_read_ = read_weight_;
          tokens_write_ = write_weight_;
          ssq_stats_.tokens_granted += read_weight_ + write_weight_;
          ++ssq_stats_.token_resets;
          SRC_OBS_COUNT("nvme.ssq.token_resets");
        }
        pick = tokens_write_ > 0 ? QueueKind::kWriteQueue : QueueKind::kReadQueue;
      } else {
        pick = read_ok ? QueueKind::kReadQueue : QueueKind::kWriteQueue;
        // Borrowing applies when the *other* SQ is empty (not merely capped).
        borrow = pick == QueueKind::kReadQueue ? wsq_.empty() : rsq_.empty();
      }

      auto& queue = pick == QueueKind::kReadQueue ? rsq_ : wsq_;
      IoRequest request = std::move(queue.front());
      queue.pop_front();
      if (pick == QueueKind::kReadQueue) {
        ++ssq_stats_.fetched_from_rsq;
        SRC_OBS_COUNT("nvme.ssq.fetched_from_rsq");
      } else {
        ++ssq_stats_.fetched_from_wsq;
        SRC_OBS_COUNT("nvme.ssq.fetched_from_wsq");
      }
      if (borrow) {
        ++ssq_stats_.borrowed_fetches;
        SRC_OBS_COUNT("nvme.ssq.borrowed_fetches");
      } else {
        charge_token(request.type);
      }
      SRC_OBS_TRACE_COUNTER("nvme", "ssq.rsq_depth", sim_.now(), trace_lane(),
                            static_cast<double>(rsq_.size()));
      SRC_OBS_TRACE_COUNTER("nvme", "ssq.wsq_depth", sim_.now(), trace_lane(),
                            static_cast<double>(wsq_.size()));
      if (consistency_enabled_) {
        consistency_.note_fetched(request.lba, request.bytes);
      }
      dispatch(request);
    }
  }

  std::deque<IoRequest> rsq_;
  std::deque<IoRequest> wsq_;
  AdmissionGate rsq_gate_;
  AdmissionGate wsq_gate_;
  ConsistencyTracker consistency_;
  std::uint32_t read_weight_ = 1;
  std::uint32_t write_weight_ = 1;
  std::uint32_t tokens_read_ = 1;
  std::uint32_t tokens_write_ = 1;
  std::uint32_t qd_cap_read_ = 1;
  std::uint32_t qd_cap_write_ = 1;
  bool consistency_enabled_ = true;
  SsqStats ssq_stats_;
};

}  // namespace src::nvme

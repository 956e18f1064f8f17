// Workload Monitor (paper §III-C): observes requests arriving at a target
// and extracts the workload characteristics `Ch` over the most recent
// prediction window [t - delta, t] when the SRC controller asks for them.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "workload/features.hpp"

namespace src::core {

class WorkloadMonitor {
 public:
  explicit WorkloadMonitor(common::SimTime window = 10 * common::kMillisecond)
      : window_(window) {}

  common::SimTime window() const { return window_; }

  /// Record a request observed at time `when`.
  void observe(common::SimTime when, common::IoType type, std::uint64_t lba,
               std::uint32_t bytes) {
    records_.push_back(workload::TraceRecord{when, lba, bytes, type});
    prune(when);
  }

  /// Extract `Ch` over [now - window, now].
  workload::WorkloadFeatures features(common::SimTime now) {
    prune(now);
    return workload::extract_features(
        std::span{records_.data() + head_, records_.size() - head_}, window_);
  }

  std::size_t tracked_requests() const { return records_.size() - head_; }

 private:
  void prune(common::SimTime now) {
    const common::SimTime cutoff = now - window_;
    while (head_ < records_.size() && records_[head_].arrival < cutoff) {
      ++head_;
    }
    // Compact once the dead prefix dominates, keeping amortized O(1).
    if (head_ > 1024 && head_ * 2 > records_.size()) {
      records_.erase(records_.begin(),
                     records_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  common::SimTime window_;
  std::vector<workload::TraceRecord> records_;
  std::size_t head_ = 0;
};

}  // namespace src::core

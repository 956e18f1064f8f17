// NVMe-specification weighted-round-robin arbitration with priority
// classes (NVMe Base Spec §4.13 "WRR with Urgent Priority Class"):
//
//   * an URGENT class served with strict priority,
//   * HIGH / MEDIUM / LOW classes served by weighted round robin, each
//     fetching up to `arbitration_burst` commands per turn,
//   * the device queue depth and admission gate still bound parallelism.
//
// The paper's SSQ is the two-class instance of this mechanism (reads and
// writes as two weighted classes); this driver exposes the full spec shape
// so other policies — e.g. latency-critical reads in URGENT — can be
// studied with the same substrate.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "nvme/driver.hpp"

namespace src::nvme {

enum class NvmePriority : std::uint8_t {
  kUrgent = 0,
  kHigh = 1,
  kMedium = 2,
  kLow = 3,
};
inline constexpr std::size_t kNvmePriorityClasses = 4;

struct PriorityDriverParams {
  std::uint32_t high_weight = 8;
  std::uint32_t medium_weight = 4;
  std::uint32_t low_weight = 1;
  /// Commands fetched per credit (the spec's arbitration burst).
  std::uint32_t arbitration_burst = 2;
};

struct PriorityDriverStats {
  std::array<std::uint64_t, kNvmePriorityClasses> fetched{};
  std::uint64_t credit_rounds = 0;
  /// Fetch passes that ended with work queued but nothing admissible — the
  /// scheduler-starvation signal the liveness watchdog and benches watch.
  std::uint64_t stalls_with_work = 0;
};

class NvmePriorityDriver final : public NvmeDriver {
 public:
  /// Classifies each request into a priority class. Default: reads MEDIUM,
  /// writes LOW (a latency-leaning default; override per workload).
  using Classifier = std::function<NvmePriority(const IoRequest&)>;

  NvmePriorityDriver(sim::Simulator& sim, ssd::SsdDevice& device,
                     PriorityDriverParams params = {})
      : NvmeDriver(sim, device), params_(params) {
    reset_credits();
  }

  void set_classifier(Classifier fn) { classify_ = std::move(fn); }

  void set_weights(std::uint32_t high, std::uint32_t medium, std::uint32_t low) {
    params_.high_weight = std::max(1u, high);
    params_.medium_weight = std::max(1u, medium);
    params_.low_weight = std::max(1u, low);
    reset_credits();
    try_fetch();
  }

  std::size_t queued() const override {
    std::size_t total = 0;
    for (const auto& queue : queues_) total += queue.size();
    return total;
  }

  std::size_t queued(NvmePriority priority) const {
    return queues_[static_cast<std::size_t>(priority)].size();
  }

  const PriorityDriverStats& priority_stats() const { return stats_; }

 private:
  void do_submit(IoRequest request) override {
    const NvmePriority priority =
        classify_ ? classify_(request) : default_class(request);
    queues_[static_cast<std::size_t>(priority)].push_back(std::move(request));
    try_fetch();
  }

  static NvmePriority default_class(const IoRequest& request) {
    return request.type == IoType::kRead ? NvmePriority::kMedium
                                         : NvmePriority::kLow;
  }

  void reset_credits() {
    credits_[static_cast<std::size_t>(NvmePriority::kHigh)] = params_.high_weight;
    credits_[static_cast<std::size_t>(NvmePriority::kMedium)] = params_.medium_weight;
    credits_[static_cast<std::size_t>(NvmePriority::kLow)] = params_.low_weight;
    ++stats_.credit_rounds;
  }

  bool fetch_from(std::size_t klass) {
    auto& queue = queues_[klass];
    if (queue.empty() || !admissible(queue.front(), gates_[klass])) return false;
    IoRequest request = std::move(queue.front());
    queue.pop_front();
    ++stats_.fetched[klass];
    dispatch(request);
    return true;
  }

  void try_fetch() override {
    bool stalled_with_work = false;
    while (in_flight() < queue_depth()) {
      // 1. URGENT drains first, always.
      const auto urgent = static_cast<std::size_t>(NvmePriority::kUrgent);
      if (!queues_[urgent].empty()) {
        if (fetch_from(urgent)) continue;
        stalled_with_work = true;
        break;
      }

      // 2. Weighted classes: scan H -> M -> L for a class holding both
      // credits and work; each grant fetches up to the arbitration burst.
      bool any_credit_and_work = false;
      bool fetched_any = false;
      for (const auto klass :
           {NvmePriority::kHigh, NvmePriority::kMedium, NvmePriority::kLow}) {
        const auto k = static_cast<std::size_t>(klass);
        if (queues_[k].empty() || credits_[k] == 0) continue;
        any_credit_and_work = true;
        --credits_[k];
        for (std::uint32_t burst = 0;
             burst < params_.arbitration_burst && in_flight() < queue_depth();
             ++burst) {
          if (!fetch_from(k)) {
            if (!queues_[k].empty()) stalled_with_work = true;
            break;
          }
          fetched_any = true;
        }
        break;  // one grant per scan, then re-evaluate from the top
      }
      if (any_credit_and_work) {
        if (!fetched_any && stalled_with_work) break;
        continue;
      }

      // 3. No class has both credits and work: if work exists, refresh the
      // credits (end of a WRR round); otherwise we are done.
      bool any_work = false;
      for (const auto& queue : queues_) any_work |= !queue.empty();
      if (!any_work) return;
      reset_credits();
      // Guard: if work exists but nothing is admissible, wake when a gate
      // reopens.
      bool any_admissible = false;
      for (std::size_t k = 0; k < kNvmePriorityClasses; ++k) {
        if (!queues_[k].empty() && admissible(queues_[k].front(), gates_[k])) {
          any_admissible = true;
        }
      }
      if (!any_admissible) {
        stalled_with_work = true;
        break;
      }
    }
    if (stalled_with_work) {
      ++stats_.stalls_with_work;
      SRC_OBS_COUNT("nvme.priority.stalled_with_work");
      common::SimTime at = common::kTimeInfinity;
      for (std::size_t k = 0; k < kNvmePriorityClasses; ++k) {
        if (queues_[k].empty()) continue;
        at = std::min(at, gates_[k].reopens_at(queues_[k].front(), sim_.now()));
      }
      wake_at(at);
    }
  }

  PriorityDriverParams params_;
  Classifier classify_;
  std::array<std::deque<IoRequest>, kNvmePriorityClasses> queues_;
  std::array<AdmissionGate, kNvmePriorityClasses> gates_;
  std::array<std::uint32_t, kNvmePriorityClasses> credits_{};
  PriorityDriverStats stats_;
};

}  // namespace src::nvme

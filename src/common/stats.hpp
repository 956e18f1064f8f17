// Streaming statistics used by the workload feature extractor (mean, SCV,
// skewness, lag-1 autocorrelation) and time-binned series accumulators used
// to build throughput timelines for the figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cmath>
#include <vector>

#include "common/types.hpp"

namespace src::common {

/// Welford-style running moments: mean, variance, SCV, skewness.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    const double delta_n = delta / static_cast<double>(n_);
    const double term1 = delta * delta_n * static_cast<double>(n_ - 1);
    m3_ += term1 * delta_n * static_cast<double>(n_ - 2) - 3.0 * delta_n * m2_;
    m2_ += term1;
    mean_ += delta_n;
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }

  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

  double stddev() const { return std::sqrt(variance()); }

  /// Squared coefficient of variation: var / mean^2 (0 when degenerate).
  double scv() const {
    // srclint:fp-ok(exact-zero guard against dividing by mean^2)
    return (n_ > 1 && mean_ != 0.0) ? variance() / (mean_ * mean_) : 0.0;
  }

  double skewness() const {
    if (n_ < 3 || m2_ <= 0.0) return 0.0;
    const double nd = static_cast<double>(n_);
    return std::sqrt(nd) * m3_ / std::pow(m2_, 1.5);
  }

  void merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) { *this = other; return; }
    const double na = static_cast<double>(n_), nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double n_total = na + nb;
    const double new_mean = mean_ + delta * nb / n_total;
    const double new_m2 = m2_ + other.m2_ + delta * delta * na * nb / n_total;
    // Third moment merge (Pébay 2008).
    const double new_m3 = m3_ + other.m3_ +
        delta * delta * delta * na * nb * (na - nb) / (n_total * n_total) +
        3.0 * delta * (na * other.m2_ - nb * m2_) / n_total;
    n_ += other.n_;
    mean_ = new_mean;
    m2_ = new_m2;
    m3_ = new_m3;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
};

/// Streaming lag-1 autocorrelation estimate.
class Lag1Autocorrelation {
 public:
  void add(double x) {
    stats_.add(x);
    if (has_prev_) {
      ++pairs_;
      cross_sum_ += prev_ * x;
      prev_sum_ += prev_;
      curr_sum_ += x;
    }
    prev_ = x;
    has_prev_ = true;
  }

  /// Returns 0 when fewer than 3 samples or a degenerate series.
  double value() const {
    if (pairs_ < 2) return 0.0;
    const double n = static_cast<double>(pairs_);
    const double cov = cross_sum_ / n - (prev_sum_ / n) * (curr_sum_ / n);
    const double var = stats_.variance();
    return var > 0.0 ? cov / var : 0.0;
  }

  const RunningStats& marginal() const { return stats_; }

 private:
  RunningStats stats_;
  bool has_prev_ = false;
  double prev_ = 0.0;
  std::size_t pairs_ = 0;
  double cross_sum_ = 0.0;
  double prev_sum_ = 0.0;
  double curr_sum_ = 0.0;
};

/// Accumulates (time, bytes) completions into fixed-width time bins and
/// reports per-bin throughput — this is how the paper's runtime-throughput
/// figures (Fig 7, 9, 10) are produced.
class ThroughputTimeline {
 public:
  explicit ThroughputTimeline(SimTime bin_width) : bin_width_(bin_width) {}

  void record(SimTime when, std::uint64_t bytes) {
    const auto bin = static_cast<std::size_t>(when / bin_width_);
    if (bin >= bytes_per_bin_.size()) bytes_per_bin_.resize(bin + 1, 0);
    bytes_per_bin_[bin] += bytes;
  }

  std::size_t bin_count() const { return bytes_per_bin_.size(); }
  SimTime bin_width() const { return bin_width_; }
  SimTime bin_start(std::size_t i) const { return static_cast<SimTime>(i) * bin_width_; }
  std::uint64_t bin_bytes(std::size_t i) const { return bytes_per_bin_.at(i); }

  Rate bin_rate(std::size_t i) const {
    return Rate::bytes_per_second(static_cast<double>(bytes_per_bin_.at(i)) /
                                  to_seconds(bin_width_));
  }

  std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (auto b : bytes_per_bin_) total += b;
    return total;
  }

  /// Ensure bins exist up to `when` (a starved stream's timeline must still
  /// span the full measurement window or its mean rate is overestimated).
  void extend_to(SimTime when) {
    const auto bins = static_cast<std::size_t>(when / bin_width_);
    if (bins > bytes_per_bin_.size()) bytes_per_bin_.resize(bins, 0);
  }

  /// Bin-wise sum with another timeline of the same bin width.
  void merge(const ThroughputTimeline& other) {
    if (other.bin_width_ != bin_width_) return;
    if (other.bytes_per_bin_.size() > bytes_per_bin_.size()) {
      bytes_per_bin_.resize(other.bytes_per_bin_.size(), 0);
    }
    for (std::size_t i = 0; i < other.bytes_per_bin_.size(); ++i) {
      bytes_per_bin_[i] += other.bytes_per_bin_[i];
    }
  }

  /// Mean rate over the bins in [first_frac, 1 - last_frac) — the paper
  /// trims the first and last 10% of the timeline to skip warmup/wrapup.
  Rate trimmed_mean_rate(double first_frac = 0.1, double last_frac = 0.1) const {
    if (bytes_per_bin_.empty()) return Rate::zero();
    const auto n = bytes_per_bin_.size();
    auto lo = static_cast<std::size_t>(first_frac * static_cast<double>(n));
    auto hi = n - static_cast<std::size_t>(last_frac * static_cast<double>(n));
    if (hi <= lo) { lo = 0; hi = n; }
    std::uint64_t total = 0;
    for (std::size_t i = lo; i < hi; ++i) total += bytes_per_bin_[i];
    const double span = to_seconds(bin_width_) * static_cast<double>(hi - lo);
    return Rate::bytes_per_second(static_cast<double>(total) / span);
  }

 private:
  SimTime bin_width_;
  std::vector<std::uint64_t> bytes_per_bin_;
};

/// Counts discrete events (e.g. PFC pauses) into time bins (Fig 8).
class EventTimeline {
 public:
  explicit EventTimeline(SimTime bin_width) : bin_width_(bin_width) {}

  void record(SimTime when, std::uint64_t count = 1) {
    const auto bin = static_cast<std::size_t>(when / bin_width_);
    if (bin >= counts_.size()) counts_.resize(bin + 1, 0);
    counts_[bin] += count;
  }

  std::size_t bin_count() const { return counts_.size(); }
  SimTime bin_width() const { return bin_width_; }
  std::uint64_t bin(std::size_t i) const { return counts_.at(i); }

  std::uint64_t total() const {
    std::uint64_t total = 0;
    for (auto c : counts_) total += c;
    return total;
  }

  /// Bin-wise sum with another timeline of the same bin width.
  void merge(const EventTimeline& other) {
    if (other.bin_width_ != bin_width_) return;
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }

 private:
  SimTime bin_width_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace src::common

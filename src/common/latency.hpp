// Latency percentile tracking with logarithmic buckets: O(1) record,
// approximate quantiles with <= ~9% relative bucket error, fixed memory.
// The repo's one histogram type: the drivers and the fabric report
// p50/p99/p999 latencies from it, and the metric registry (obs/metrics.hpp)
// snapshots it bucket by bucket.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace src::common {

class LatencyRecorder {
 public:
  /// Buckets span [1 us, ~100 s) with 8 buckets per decade. Bucket b holds
  /// [edge_us(b), edge_us(b + 1)); bucket 0 also takes everything below
  /// 1 us, and the last bucket clamps everything above its lower edge.
  static constexpr std::size_t kBucketsPerDecade = 8;
  static constexpr std::size_t kDecades = 8;
  static constexpr std::size_t kBuckets = kBucketsPerDecade * kDecades;

  void record(SimTime latency) {
    const double us = to_microseconds(latency);
    ++count_;
    sum_us_ += us;
    if (us > max_us_) max_us_ = us;
    ++buckets_[bucket_for(us)];
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t bucket(std::size_t b) const { return buckets_.at(b); }
  double sum_us() const { return sum_us_; }
  double mean_us() const { return count_ ? sum_us_ / static_cast<double>(count_) : 0.0; }
  double max_us() const { return max_us_; }

  /// Approximate quantile (0 < q < 1) in microseconds; 0 when empty.
  double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= target) return bucket_midpoint_us(b);
    }
    return max_us_;
  }

  double p50_us() const { return quantile_us(0.50); }
  double p99_us() const { return quantile_us(0.99); }
  double p999_us() const { return quantile_us(0.999); }

  /// Boundary between buckets k - 1 and k: 10^(k/8) us.
  static double edge_us(std::size_t k) {
    return std::pow(10.0, static_cast<double>(k) / kBucketsPerDecade);
  }

  void merge(const LatencyRecorder& other) {
    count_ += other.count_;
    sum_us_ += other.sum_us_;
    if (other.max_us_ > max_us_) max_us_ = other.max_us_;
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  }

 private:
  static std::size_t bucket_for(double us) {
    if (us < 1.0) return 0;
    const double position = std::log10(us) * kBucketsPerDecade;
    const auto bucket = static_cast<std::size_t>(position);
    return bucket >= kBuckets ? kBuckets - 1 : bucket;
  }

  static double bucket_midpoint_us(std::size_t bucket) {
    return 0.5 * (edge_us(bucket) + edge_us(bucket + 1));
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
  double max_us_ = 0.0;
};

}  // namespace src::common

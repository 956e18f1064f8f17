// Metric primitives: monotone counters, last-value gauges, and fixed-bucket
// histograms, held in a name-indexed MetricRegistry.
//
// The registry is passive — recording never schedules simulator events or
// consults RNGs, so an instrumented run executes the exact same event
// sequence as an uninstrumented one (the determinism tests pin this).
// Metrics are identified by dotted lowercase names, `layer.component.metric`
// (e.g. `net.dcqcn.cnps`, `nvme.ssq.token_resets`); see DESIGN.md §7.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace src::obs {

/// Monotonically non-decreasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, weight ratio, rate).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges in
/// ascending order; one implicit overflow bucket catches everything above
/// the last bound. Invariant (property-tested): the bucket counts always
/// sum to the total observation count.
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void observe(double value) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    ++total_;
    sum_ += value;
  }

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }
  double mean() const {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }

  /// Add `other`'s observations (same bounds) to this histogram.
  void merge(const FixedHistogram& other) {
    if (other.bounds_ != bounds_) {
      throw std::invalid_argument("FixedHistogram::merge: bucket bounds differ");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
  }

  /// Approximate quantile from bucket midpoints; the overflow bucket
  /// reports the last finite bound.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= target) {
        if (bounds_.empty()) return 0.0;
        if (i >= bounds_.size()) return bounds_.back();
        const double hi = bounds_[i];
        const double lo = i == 0 ? 0.0 : bounds_[i - 1];
        return (lo + hi) / 2.0;
      }
    }
    return bounds_.empty() ? 0.0 : bounds_.back();
  }

  /// Default latency buckets in microseconds: 1-2-5 steps from 1 us to 10 s.
  static std::vector<double> latency_buckets_us() {
    std::vector<double> bounds;
    for (double decade = 1.0; decade <= 1e7; decade *= 10.0) {
      bounds.push_back(decade);
      bounds.push_back(2.0 * decade);
      bounds.push_back(5.0 * decade);
    }
    return bounds;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Name-indexed store for counters, gauges, and histograms. Lookup interns
/// the metric on first use; returned references stay valid for the
/// registry's lifetime (node-based map). Export order is sorted by name, so
/// snapshots are deterministic.
class MetricRegistry {
 public:
  Counter& counter(std::string_view name) {
    return counters_[std::string(name)];
  }

  Gauge& gauge(std::string_view name) { return gauges_[std::string(name)]; }

  /// First call for a name fixes the bucket bounds; later calls ignore
  /// `bounds` and return the existing histogram.
  FixedHistogram& histogram(std::string_view name, std::vector<double> bounds) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    return histograms_.emplace(std::string(name), FixedHistogram(std::move(bounds)))
        .first->second;
  }

  FixedHistogram& latency_histogram_us(std::string_view name) {
    return histogram(name, FixedHistogram::latency_buckets_us());
  }

  /// Read-only lookup; nullptr when the metric was never touched.
  const Counter* find_counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  const Gauge* find_gauge(std::string_view name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
  }
  const FixedHistogram* find_histogram(std::string_view name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Fold `other` in: counters add, gauges take other's value, histogram
  /// buckets add. Every metric other touched exists here afterwards.
  void merge(const MetricRegistry& other) {
    for (const auto& [name, c] : other.counters_) counter(name).inc(c.value());
    for (const auto& [name, g] : other.gauges_) gauge(name).set(g.value());
    for (const auto& [name, h] : other.histograms_) {
      histogram(name, h.bounds()).merge(h);
    }
  }

  /// Deterministic snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{bounds,counts,...}}}
  Json snapshot() const {
    Json::Object counters;
    for (const auto& [name, c] : counters_) {
      counters.emplace_back(name, Json{c.value()});
    }
    Json::Object gauges;
    for (const auto& [name, g] : gauges_) {
      gauges.emplace_back(name, Json{g.value()});
    }
    Json::Object histograms;
    for (const auto& [name, h] : histograms_) {
      Json::Array bounds, counts;
      for (const double b : h.bounds()) bounds.push_back(Json{b});
      for (std::size_t i = 0; i < h.bucket_count(); ++i) counts.push_back(Json{h.bucket(i)});
      Json entry{Json::Object{}};
      entry.set("bounds", Json{std::move(bounds)});
      entry.set("counts", Json{std::move(counts)});
      entry.set("total", Json{h.total()});
      entry.set("sum", Json{h.sum()});
      histograms.emplace_back(name, std::move(entry));
    }
    Json root{Json::Object{}};
    root.set("counters", Json{std::move(counters)});
    root.set("gauges", Json{std::move(gauges)});
    root.set("histograms", Json{std::move(histograms)});
    return root;
  }

  std::string snapshot_json(int indent = 2) const { return snapshot().dump(indent); }

 private:
  // std::map: stable node addresses (references survive later insertions)
  // and sorted iteration (deterministic export). Transparent comparison
  // avoids allocating for string_view lookups of existing metrics.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, FixedHistogram, std::less<>> histograms_;
};

}  // namespace src::obs

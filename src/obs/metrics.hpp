// Metric primitives: monotone counters, last-value gauges, and latency
// histograms (common::LatencyRecorder), held in a name-indexed
// MetricRegistry.
//
// The registry is passive — recording never schedules simulator events or
// consults RNGs, so an instrumented run executes the exact same event
// sequence as an uninstrumented one (the determinism tests pin this).
// Metrics are identified by dotted lowercase names, `layer.component.metric`
// (e.g. `net.dcqcn.cnps`, `nvme.ssq.token_resets`); see DESIGN.md §7.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/latency.hpp"
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

  /// Latency histogram in microseconds; every one has the recorder's
  /// log-spaced buckets, so there are no bounds to choose.
  common::LatencyRecorder& histogram(std::string_view name) {
    const auto it = histograms_.lower_bound(name);
    if (it != histograms_.end() && it->first == name) return it->second;
    return histograms_.emplace_hint(it, std::string(name), common::LatencyRecorder{})
        ->second;
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
  const common::LatencyRecorder* find_histogram(std::string_view name) const {
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
    for (const auto& [name, h] : other.histograms_) histogram(name).merge(h);
  }

  /// Deterministic snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{bounds,counts,...}}}
  /// A histogram's `bounds` are the 63 exclusive upper bucket edges in us
  /// and its `counts` the 64 buckets, the last one the clamp bucket.
  Json snapshot() const {
    Json::Object counters;
    for (const auto& [name, c] : counters_) {
      counters.emplace_back(name, Json{c.value()});
    }
    Json::Object gauges;
    for (const auto& [name, g] : gauges_) {
      gauges.emplace_back(name, Json{g.value()});
    }
    using common::LatencyRecorder;
    Json::Array bounds;
    for (std::size_t k = 1; k < LatencyRecorder::kBuckets; ++k) {
      bounds.push_back(Json{LatencyRecorder::edge_us(k)});
    }
    Json::Object histograms;
    for (const auto& [name, h] : histograms_) {
      Json::Array counts;
      for (std::size_t b = 0; b < LatencyRecorder::kBuckets; ++b) {
        counts.push_back(Json{h.bucket(b)});
      }
      Json entry{Json::Object{}};
      entry.set("bounds", Json{bounds});
      entry.set("counts", Json{std::move(counts)});
      entry.set("total", Json{h.count()});
      entry.set("sum", Json{h.sum_us()});
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
  std::map<std::string, common::LatencyRecorder, std::less<>> histograms_;
};

}  // namespace src::obs

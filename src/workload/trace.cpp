#include "workload/trace.hpp"

#include <algorithm>

namespace src::workload {

namespace {

StreamStats stream_stats(std::span<const TraceRecord> trace, IoType type,
                         SimTime duration) {
  StreamStats out;
  common::Lag1Autocorrelation iat;
  common::Lag1Autocorrelation size;
  SimTime prev_arrival = -1;
  std::uint64_t total_bytes = 0;

  for (const auto& rec : trace) {
    if (rec.type != type) continue;
    ++out.count;
    total_bytes += rec.bytes;
    size.add(static_cast<double>(rec.bytes));
    if (prev_arrival >= 0) {
      iat.add(common::to_microseconds(rec.arrival - prev_arrival));
    }
    prev_arrival = rec.arrival;
  }

  out.mean_iat_us = iat.marginal().mean();
  out.scv_iat = iat.marginal().scv();
  out.skew_iat = iat.marginal().skewness();
  out.autocorr_iat = iat.value();
  out.mean_size_bytes = size.marginal().mean();
  out.scv_size = size.marginal().scv();
  out.skew_size = size.marginal().skewness();
  out.autocorr_size = size.value();
  if (duration > 0) {
    out.flow_speed_bytes_per_sec =
        static_cast<double>(total_bytes) / common::to_seconds(duration);
  }
  return out;
}

}  // namespace

TraceStats analyze(std::span<const TraceRecord> trace) {
  TraceStats stats;
  if (trace.empty()) return stats;
  stats.duration = trace.back().arrival - trace.front().arrival;
  if (stats.duration <= 0) stats.duration = 1;
  stats.read = stream_stats(trace, IoType::kRead, stats.duration);
  stats.write = stream_stats(trace, IoType::kWrite, stats.duration);
  const auto total = stats.read.count + stats.write.count;
  stats.read_ratio =
      total == 0 ? 0.0 : static_cast<double>(stats.read.count) / static_cast<double>(total);
  return stats;
}

void sort_by_arrival(Trace& trace) {
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceRecord& x, const TraceRecord& y) {
                     return x.arrival < y.arrival;
                   });
}

}  // namespace src::workload

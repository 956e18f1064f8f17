// Block I/O trace representation plus per-stream statistics (mean / SCV /
// skewness / lag-1 autocorrelation of inter-arrival time and request size)
// — the quantities the paper extracts from the SNIA traces to parameterise
// its synthetic workloads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace src::workload {

using common::IoType;
using common::SimTime;

/// One request. The 1-byte type sits in the padding after `bytes`, so a
/// record takes 24 bytes, not 32 (traces are the bulk of TPM training's
/// memory). A brace-init in the older {arrival, type, lba, bytes} order
/// puts the scoped enum where `lba` goes, so it does not compile.
struct TraceRecord {
  SimTime arrival = 0;
  std::uint64_t lba = 0;
  std::uint32_t bytes = 0;
  IoType type = IoType::kRead;
};
static_assert(sizeof(TraceRecord) == 24);

using Trace = std::vector<TraceRecord>;

/// Statistics of one request stream (read or write) within a trace.
struct StreamStats {
  std::size_t count = 0;
  double mean_iat_us = 0.0;
  double scv_iat = 0.0;
  double skew_iat = 0.0;
  double autocorr_iat = 0.0;
  double mean_size_bytes = 0.0;
  double scv_size = 0.0;
  double skew_size = 0.0;
  double autocorr_size = 0.0;
  /// Arrival flow speed: bytes arriving per second.
  double flow_speed_bytes_per_sec = 0.0;
};

struct TraceStats {
  StreamStats read;
  StreamStats write;
  double read_ratio = 0.0;  ///< reads / (reads + writes), by request count
  SimTime duration = 0;
};

/// Compute full per-stream statistics over a trace (assumed sorted by
/// arrival time; `analyze` tolerates empty streams).
TraceStats analyze(std::span<const TraceRecord> trace);

/// Merge two streams that are each generated in arrival order, drawing a
/// record only when the merge reaches it, so neither stream is stored apart
/// from the result. `next_a()` yields stream a's records (`count_a` of
/// them), `next_b()` stream b's. On equal arrivals a's record comes first:
/// the order `sort_by_arrival` gives a's records followed by b's. The
/// result is built in `into`'s buffer (cleared first), so a caller that
/// reserved it decides which thread's heap holds the trace.
template <typename NextA, typename NextB>
Trace merge_streams(std::size_t count_a, NextA&& next_a, std::size_t count_b,
                    NextB&& next_b, Trace into = {}) {
  into.clear();
  into.reserve(count_a + count_b);
  // Each count includes the stream's pending head record.
  TraceRecord a;
  TraceRecord b;
  if (count_a > 0) a = next_a();
  if (count_b > 0) b = next_b();
  while (count_a > 0 && count_b > 0) {
    if (b.arrival < a.arrival) {
      into.push_back(b);
      if (--count_b > 0) b = next_b();
    } else {
      into.push_back(a);
      if (--count_a > 0) a = next_a();
    }
  }
  for (; count_a > 0; --count_a) {
    into.push_back(a);
    if (count_a > 1) a = next_a();
  }
  for (; count_b > 0; --count_b) {
    into.push_back(b);
    if (count_b > 1) b = next_b();
  }
  return into;
}

/// Sort a trace in place by arrival time (stable).
void sort_by_arrival(Trace& trace);

}  // namespace src::workload

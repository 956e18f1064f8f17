// "Micro" trace generator (paper §IV-A): inter-arrival times and request
// sizes drawn from exponential distributions, independently for the read
// and the write stream. Sizes are aligned to a block granularity and
// clamped to a minimum, as block-layer requests are.
#pragma once

#include <cstdint>

#include "workload/trace.hpp"

namespace src::workload {

struct StreamParams {
  double mean_iat_us = 10.0;       ///< mean inter-arrival time
  double mean_size_bytes = 32.0 * 1024;  ///< mean request size
  std::size_t count = 5000;        ///< number of requests to generate

  friend bool operator==(const StreamParams&, const StreamParams&) = default;
};

struct MicroParams {
  StreamParams read;
  StreamParams write;
  std::uint64_t lba_space_bytes = 4ull << 30;  ///< address space size
  std::uint32_t align_bytes = 4096;             ///< size/LBA alignment
  std::uint32_t min_size_bytes = 4096;
  std::uint32_t max_size_bytes = 1u << 20;
  /// LBA popularity skew: 0 = uniform; otherwise Zipf-like with this theta
  /// (0.99 is the YCSB default) — a small hot set absorbs most accesses,
  /// which drives CMT hit rates and (with GC) hot/cold block separation.
  double zipf_theta = 0.0;

  friend bool operator==(const MicroParams&, const MicroParams&) = default;
};

/// Convenience: identical read/write characteristics (the Fig. 5 setup).
MicroParams symmetric_micro(double mean_iat_us, double mean_size_bytes,
                            std::size_t count_per_stream);

/// Generate a micro trace; deterministic for a given seed. The result is
/// sorted by arrival time (reads before writes on equal arrivals) and built
/// in `into`'s buffer, as merge_streams builds it.
Trace generate_micro(const MicroParams& params, std::uint64_t seed, Trace into = {});

}  // namespace src::workload

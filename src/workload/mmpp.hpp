// MMPP(2)-based synthetic trace generation (paper §IV-A): the paper fits a
// two-phase Markov-modulated Poisson process to the statistics of real
// SNIA traces (Fujitsu VDI, Tencent CBS) and replays synthetic traces with
// bursty inter-arrival times. We implement the MMPP(2) generator directly,
// a moment-matching fitter that targets a requested inter-arrival SCV, and
// a lognormal size model with controllable size SCV.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "workload/trace.hpp"

namespace src::workload {

/// Two-state MMPP: Poisson arrivals at `rate_quiet` / `rate_burst`
/// (arrivals per second) with exponentially distributed state sojourns.
struct Mmpp2Params {
  double rate_quiet = 50'000.0;    ///< arrivals/sec in the quiet state
  double rate_burst = 500'000.0;   ///< arrivals/sec in the burst state
  double sojourn_quiet_s = 2e-3;   ///< mean sojourn in the quiet state
  double sojourn_burst_s = 0.5e-3; ///< mean sojourn in the burst state

  /// Stationary probability of the burst state.
  double burst_fraction() const {
    return sojourn_burst_s / (sojourn_quiet_s + sojourn_burst_s);
  }
  /// Long-run mean arrival rate (arrivals per second).
  double mean_rate() const {
    return rate_quiet * (1.0 - burst_fraction()) + rate_burst * burst_fraction();
  }
  double mean_iat_us() const { return 1e6 / mean_rate(); }
};

/// Stateful arrival-process generator; deterministic for a given Rng state.
class Mmpp2Generator {
 public:
  explicit Mmpp2Generator(const Mmpp2Params& params, common::Rng rng);

  /// Next inter-arrival time in microseconds.
  double next_iat_us();

  bool in_burst() const { return in_burst_; }

 private:
  Mmpp2Params params_;
  common::Rng rng_;
  bool in_burst_ = false;
  double state_time_left_us_ = 0.0;
};

/// Exact stationary SCV of the inter-arrival time of an MMPP(2). The
/// inter-arrival time is phase-type (sub-generator D0 = Q - Λ, start vector
/// φ = πΛ / (πλ)), so its moments E[X^k] = k! φ (-D0)^-k 1 have a 2x2
/// closed form.
double mmpp2_iat_scv(const Mmpp2Params& params);

/// Moment-matched MMPP(2) fit: inter-arrival times have exactly the
/// requested mean and (to bisection precision) the requested SCV. scv >= 1;
/// scv <= 1.05 degenerates to a plain Poisson process. The fit bisects the
/// sojourn time scale against `mmpp2_iat_scv`, escalating the burst-rate
/// ratio when the target is out of reach at the sojourn cap.
Mmpp2Params fit_mmpp2(double mean_iat_us, double target_scv,
                      double burst_rate_ratio = 10.0);

/// Per-stream parameters for synthetic trace generation.
struct SyntheticStreamParams {
  double mean_iat_us = 10.0;
  double iat_scv = 1.0;            ///< >= 1; 1 = Poisson
  double mean_size_bytes = 32.0 * 1024;
  double size_scv = 0.25;          ///< lognormal size variability
  std::size_t count = 5000;

  friend bool operator==(const SyntheticStreamParams&,
                         const SyntheticStreamParams&) = default;
};

struct SyntheticParams {
  SyntheticStreamParams read;
  SyntheticStreamParams write;
  std::uint64_t lba_space_bytes = 4ull << 30;
  std::uint32_t align_bytes = 4096;
  std::uint32_t min_size_bytes = 4096;
  std::uint32_t max_size_bytes = 1u << 20;

  friend bool operator==(const SyntheticParams&, const SyntheticParams&) = default;
};

/// Generate a synthetic (MMPP-arrival, lognormal-size) trace, sorted by
/// arrival time (reads before writes on equal arrivals); deterministic for
/// a given seed.
Trace generate_synthetic(const SyntheticParams& params, std::uint64_t seed);

/// Preset modeled on the Fujitsu VDI trace statistics quoted in §IV-D:
/// read 44 KB / write 23 KB mean sizes, ~10 us mean inter-arrival for both
/// streams, read-intensive byte flow, moderately bursty arrivals.
SyntheticParams fujitsu_vdi_like(std::size_t requests_per_stream = 5000);

/// Preset modeled on Tencent CBS-style cloud block storage: write-heavy,
/// small requests, highly bursty arrivals.
SyntheticParams tencent_cbs_like(std::size_t requests_per_stream = 5000);

}  // namespace src::workload

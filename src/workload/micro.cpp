#include "workload/micro.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/rng.hpp"

namespace src::workload {

namespace {

/// Bounded Zipf(theta) sampler over [0, n) via the Gray et al. analytic
/// approximation (the YCSB generator): constant time per draw after O(1)
/// setup, exact enough for workload modelling.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    const double nd = static_cast<double>(n_);
    zetan_ = zeta_approx(nd, theta_);
    zeta2_ = zeta_approx(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / nd, 1.0 - theta_)) / (1.0 - zeta2_ / zetan_);
  }

  std::uint64_t draw(common::Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const double nd = static_cast<double>(n_);
    const auto index = static_cast<std::uint64_t>(
        nd * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return index >= n_ ? n_ - 1 : index;
  }

 private:
  // Integral approximation of the generalized harmonic number: fast and
  // accurate to a few percent, which is all a synthetic workload needs.
  static double zeta_approx(double n, double theta) {
    if (theta == 1.0) return std::log(n) + 0.5772156649;
    return (std::pow(n, 1.0 - theta) - 1.0) / (1.0 - theta) + 0.5772156649;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
};

std::uint32_t clamp_align(double raw, const MicroParams& params) {
  auto bytes = static_cast<std::uint64_t>(raw);
  bytes = (bytes / params.align_bytes) * params.align_bytes;
  bytes = std::clamp<std::uint64_t>(bytes, params.min_size_bytes, params.max_size_bytes);
  return static_cast<std::uint32_t>(bytes);
}

/// One stream's records, drawn in arrival order from the stream's own RNG.
/// `zipf` is the LBA sampler (null = uniform LBAs).
class StreamSource {
 public:
  StreamSource(const StreamParams& stream, IoType type, const MicroParams& params,
               const ZipfSampler* zipf, common::Rng rng)
      : stream_(stream),
        type_(type),
        params_(params),
        zipf_(zipf),
        rng_(rng),
        lba_pages_(params.lba_space_bytes / params.align_bytes) {}

  TraceRecord next() {
    clock_us_ += rng_.exponential(stream_.mean_iat_us);
    TraceRecord rec;
    rec.arrival = common::microseconds(clock_us_);
    rec.type = type_;
    rec.bytes = clamp_align(rng_.exponential(stream_.mean_size_bytes), params_);
    const std::uint64_t page =
        zipf_ != nullptr ? zipf_->draw(rng_) : rng_.uniform_index(lba_pages_);
    rec.lba = page * params_.align_bytes;
    return rec;
  }

 private:
  const StreamParams& stream_;
  IoType type_;
  const MicroParams& params_;
  const ZipfSampler* zipf_;
  common::Rng rng_;
  std::uint64_t lba_pages_;
  double clock_us_ = 0.0;
};

}  // namespace

MicroParams symmetric_micro(double mean_iat_us, double mean_size_bytes,
                            std::size_t count_per_stream) {
  MicroParams params;
  params.read = StreamParams{mean_iat_us, mean_size_bytes, count_per_stream};
  params.write = StreamParams{mean_iat_us, mean_size_bytes, count_per_stream};
  return params;
}

Trace generate_micro(const MicroParams& params, std::uint64_t seed, Trace into) {
  // The sampler keeps no RNG state, so both streams share one.
  std::optional<ZipfSampler> zipf;
  if (params.zipf_theta > 0.0) {
    zipf.emplace(params.lba_space_bytes / params.align_bytes, params.zipf_theta);
  }
  const ZipfSampler* lba_sampler = zipf ? &*zipf : nullptr;
  common::Rng rng(seed);
  StreamSource reads(params.read, IoType::kRead, params, lba_sampler, rng.fork());
  StreamSource writes(params.write, IoType::kWrite, params, lba_sampler, rng.fork());
  return merge_streams(
      params.read.count, [&] { return reads.next(); },
      params.write.count, [&] { return writes.next(); }, std::move(into));
}

}  // namespace src::workload

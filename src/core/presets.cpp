#include "core/presets.hpp"

#include <array>
#include <span>
#include <utility>

#include "runner/runner.hpp"

namespace src::core {

namespace {

/// Inter-arrival lattice (us) for a TLC-class device, and for fast devices
/// (read latency <= 10 us, e.g. SSD-B), which saturate at shorter gaps.
constexpr std::array<double, 5> kIatGridUs = {8.0, 12.0, 18.0, 27.0, 40.0};
constexpr std::array<double, 5> kFastIatGridUs = {5.0, 8.0, 12.0, 18.0, 27.0};
constexpr std::array<std::uint32_t, 8> kWeightRatios = {1, 2, 3, 4, 6, 8, 12, 16};
/// Requests per stream in the grid default_training_data replays.
constexpr std::size_t kTrainingRequests = 6000;

/// The default grid's trace parameters, one per trace, in trace order.
std::vector<workload::MicroParams> lattice(std::size_t requests_per_stream,
                                           std::span<const double> iat_grid_us) {
  std::vector<workload::MicroParams> out;
  for (double iat_us : iat_grid_us) {
    for (double size_kb : {12.0, 20.0, 30.0, 44.0}) {
      // Write-intensity factor: symmetric, read-leaning, read-heavy mixes —
      // the read/write balance is a TPM input (Ch includes per-stream flow
      // speeds), so the grid must span it.
      for (double write_factor : {1.0, 2.0, 4.0}) {
        workload::MicroParams params =
            workload::symmetric_micro(iat_us, size_kb * 1024, requests_per_stream);
        params.write.mean_iat_us = iat_us * write_factor;
        params.write.count =
            static_cast<std::size_t>(static_cast<double>(requests_per_stream) / write_factor);
        out.push_back(params);
      }
    }
  }
  return out;
}

}  // namespace

TrainingGrid default_training_grid(std::size_t requests_per_stream,
                                   std::uint64_t seed,
                                   std::vector<double> iat_grid_us) {
  const std::vector<workload::MicroParams> params =
      iat_grid_us.empty() ? lattice(requests_per_stream, kIatGridUs)
                          : lattice(requests_per_stream, iat_grid_us);
  TrainingGrid grid;
  grid.weight_ratios.assign(kWeightRatios.begin(), kWeightRatios.end());
  grid.seed = seed;
  // Every trace's buffer is reserved here and filled in place by a worker:
  // traces the workers allocated would sit in their own malloc arenas,
  // which the caller's later allocations do not reuse (DESIGN.md §10.9).
  grid.traces.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    grid.traces[i].reserve(params[i].read.count + params[i].write.count);
  }
  runner::SweepRunner pool(0);
  pool.run(params.size(), [&](std::size_t i) {
    grid.traces[i] = workload::generate_micro(params[i], seed + 1 + i, std::move(grid.traces[i]));
  });
  return grid;
}

ml::Dataset default_training_data(const ssd::SsdConfig& ssd, std::uint64_t seed) {
  const bool fast = ssd.read_latency <= 10 * common::kMicrosecond;
  const std::vector<workload::MicroParams> params =
      lattice(kTrainingRequests, fast ? kFastIatGridUs : kIatGridUs);
  // The same traces as default_training_grid, but each is generated on the
  // worker that reaches its first cell and freed after its last, so only
  // the traces under replay are held at once (DESIGN.md §10.9).
  const TraceSource generated{
      params.size(), [&](std::size_t t, workload::Trace& storage) -> const workload::Trace& {
        storage = workload::generate_micro(params[t], seed + 1 + t);
        return storage;
      }};
  return collect_training_data(ssd, generated, kWeightRatios, seed);
}

Tpm train_default_tpm(const ssd::SsdConfig& ssd, std::uint64_t seed) {
  Tpm tpm;
  tpm.fit(default_training_data(ssd, seed));
  return tpm;
}

}  // namespace src::core

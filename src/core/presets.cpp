#include "core/presets.hpp"

#include <utility>

#include "runner/runner.hpp"

namespace src::core {

TrainingGrid default_training_grid(std::size_t requests_per_stream,
                                   std::uint64_t seed,
                                   std::vector<double> iat_grid_us) {
  if (iat_grid_us.empty()) iat_grid_us = {8.0, 12.0, 18.0, 27.0, 40.0};
  std::vector<workload::MicroParams> lattice;
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
        lattice.push_back(params);
      }
    }
  }
  TrainingGrid grid;
  grid.weight_ratios = {1, 2, 3, 4, 6, 8, 12, 16};
  grid.seed = seed;
  // Every trace's buffer is reserved here and filled in place by a worker:
  // traces the workers allocated would sit in their own malloc arenas,
  // which the caller's later allocations do not reuse (DESIGN.md §10.9).
  grid.traces.resize(lattice.size());
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    grid.traces[i].reserve(lattice[i].read.count + lattice[i].write.count);
  }
  runner::SweepRunner pool(0);
  pool.run(lattice.size(), [&](std::size_t i) {
    grid.traces[i] =
        workload::generate_micro(lattice[i], seed + 1 + i, std::move(grid.traces[i]));
  });
  return grid;
}

ml::Dataset default_training_data(const ssd::SsdConfig& ssd, std::uint64_t seed) {
  std::vector<double> iat_grid;
  if (ssd.read_latency <= 10 * common::kMicrosecond) {
    iat_grid = {5.0, 8.0, 12.0, 18.0, 27.0};  // fast (SSD-B-class) devices
  }
  return collect_training_data(ssd, default_training_grid(6000, seed, std::move(iat_grid)));
}

Tpm train_default_tpm(const ssd::SsdConfig& ssd, std::uint64_t seed) {
  Tpm tpm;
  tpm.fit(default_training_data(ssd, seed));
  return tpm;
}

}  // namespace src::core

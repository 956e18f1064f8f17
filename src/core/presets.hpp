// Default TPM training: the weight-ratio/workload lattice the paper's
// §IV-C model is fitted on, and a one-call trainer for an SSD model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/tpm.hpp"
#include "workload/micro.hpp"

namespace src::core {

/// TPM training grid: micro traces over a (inter-arrival, size,
/// read/write-balance) lattice, matching §IV-C's "extensive experiments
/// with various workloads and weight ratios". `iat_grid_us` may override
/// the inter-arrival lattice (empty = default for a TLC-class device).
/// The traces are generated on every hardware thread; each depends only on
/// its lattice point and seed, so the grid is the same at any thread count.
TrainingGrid default_training_grid(std::size_t requests_per_stream = 6000,
                                   std::uint64_t seed = 11,
                                   std::vector<double> iat_grid_us = {});

/// The samples the default TPM is fitted on: default_training_grid
/// replayed on `ssd`. Fast devices (read latency <= 10 us, e.g. SSD-B)
/// saturate at shorter inter-arrival times, so their lattice shifts
/// accordingly. Each trace is generated when its first cell runs and freed
/// after its last, so the grid is never held whole.
ml::Dataset default_training_data(const ssd::SsdConfig& ssd, std::uint64_t seed = 11);

/// Train a Random Forest TPM on all of default_training_data(ssd, seed).
Tpm train_default_tpm(const ssd::SsdConfig& ssd, std::uint64_t seed = 11);

}  // namespace src::core

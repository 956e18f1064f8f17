// TPM training, timed from outside: the same (trace, weight) cells that
// core::collect_training_data replays, re-driven through runner::SweepRunner
// and core::run_standalone so each cell's host time (and the nvme/ssd obs
// counters it records) can be attributed, plus held-out scoring.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/tpm.hpp"
#include "ml/dataset.hpp"
#include "perfbench.hpp"
#include "ssd/config.hpp"

namespace perfbench {

struct CellTrace {
  src::ml::Dataset data{src::core::kTpmFeatureCount, 2};
  std::vector<double> cell_seconds;  ///< per cell, in grid order
  double wall_seconds = 0.0;         ///< whole batch
  std::size_t threads = 0;
  std::uint64_t events = 0;
  std::uint64_t failed_cells = 0;    ///< threw or produced a non-finite label
  /// Obs counters the cells recorded (nvme.*, ssd.*), summed over cells.
  std::map<std::string, std::uint64_t> counters;

  /// Share of the pool's thread time spent inside cells:
  /// sum of cell seconds / (wall seconds x threads).
  double busy_frac() const;
};

/// Re-drives every cell of `grid` the way collect_training_data does (same
/// seeds, horizons, features and labels), one span per cell. With `observe`
/// each cell records into its own obs::Observatory and the nvme/ssd counters
/// are summed into `counters`; that costs host time, so timed passes run
/// without it.
CellTrace redrive_cells(const src::ssd::SsdConfig& ssd,
                        const src::core::TrainingGrid& grid, bool observe,
                        SpanLog& spans);

/// Labels are finite and non-negative, and some are positive.
bool labels_sane(const src::ml::Dataset& data);

/// Exact equality of features and labels.
bool same_dataset(const src::ml::Dataset& a, const src::ml::Dataset& b);

/// Mean of (read + write) labels, in Gbps: the cells' simulated throughput.
double mean_label_gbps(const src::ml::Dataset& data);

/// Seed offset of the held-out grid. default_training_grid(n, s) seeds its
/// traces s+1 .. s+60, so s + this offset never overlaps the training seeds.
inline constexpr std::uint64_t kHeldOutSeedOffset = 1000003;

/// Replays Tpm::predict_batch in blocks of 4 weights (w = 1..8) over every
/// feature vector for at least `min_seconds`; returns microseconds per call.
double predict_us_per_call(const src::core::Tpm& tpm,
                           const std::vector<src::workload::WorkloadFeatures>& vectors,
                           double min_seconds);

/// Workload features of each row of a TPM dataset (the row minus its w).
std::vector<src::workload::WorkloadFeatures> dataset_features(
    const src::ml::Dataset& data);

}  // namespace perfbench

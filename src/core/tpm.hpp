// Throughput Prediction Model (paper §III-B): learns the mapping
//   (Ch, w) -> (TPUT_R, TPUT_W)
// for a black-box SSD, where Ch is the workload-characteristics vector and
// w the SSQ write:read weight ratio. The production model is a Random
// Forest (the paper's Table I winner); any Regressor can be plugged in for
// the Table I comparison and the predictor ablation.
//
// Training data is collected by replaying (trace, w) grid points on the
// standalone rig and measuring the resulting trimmed-mean throughputs.
// Collection is embarrassingly parallel and runs across hardware threads.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/forest.hpp"
#include "ml/regressor.hpp"
#include "ssd/config.hpp"
#include "workload/features.hpp"

namespace src::core {

struct TpmPrediction {
  double read_bytes_per_sec = 0.0;
  double write_bytes_per_sec = 0.0;
};

/// Feature layout: [Ch (7 features), weight ratio w] -> targets
/// [TPUT_R, TPUT_W] in bytes/sec.
inline constexpr std::size_t kTpmFeatureCount =
    workload::WorkloadFeatures::kCount + 1;

/// Assemble a TPM input row.
std::vector<double> tpm_row(const workload::WorkloadFeatures& ch, double w);

struct TrainingGrid {
  std::vector<workload::Trace> traces;
  std::vector<std::uint32_t> weight_ratios = {1, 2, 3, 4, 5, 6, 8};
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  std::uint64_t seed = 1;
};

/// Where a collection reads its traces from. `trace(t, storage)` returns
/// trace t: either a trace that outlives the collection, or one it
/// generates into `storage`. The collection calls it once per trace, from
/// the worker that reaches the trace's first cell, and frees `storage`
/// after the trace's last cell, so a generated trace is held only while
/// its cells replay.
struct TraceSource {
  std::size_t count = 0;
  std::function<const workload::Trace&(std::size_t t, workload::Trace& storage)> trace;
};

/// Replay every (trace, w) cell on the standalone rig and emit one labelled
/// sample per cell. Cell i is trace i / |w| at weight_ratios[i % |w|],
/// seeded `seed + i`; the rows come in cell order for any thread count
/// (0 = hardware concurrency).
ml::Dataset collect_training_data(const ssd::SsdConfig& config, const TraceSource& source,
                                  std::span<const std::uint32_t> weight_ratios,
                                  std::uint64_t seed, std::size_t threads = 0);

/// collect_training_data over the grid's stored traces.
ml::Dataset collect_training_data(const ssd::SsdConfig& config,
                                  const TrainingGrid& grid);

class Tpm {
 public:
  /// Default: Random Forest with the paper's setup.
  explicit Tpm(ml::ForestConfig forest = {});
  /// Plug in any regressor prototype (for ablations).
  explicit Tpm(const ml::Regressor& prototype);

  void fit(const ml::Dataset& data);
  bool fitted() const { return fitted_; }

  TpmPrediction predict(const workload::WorkloadFeatures& ch, double w) const;

  /// Predicted read throughput alone: walks the read model only, on a
  /// stack row. Bit-identical to predict(ch, w).read_bytes_per_sec;
  /// Algorithm 1 reads nothing else.
  double predict_read(const workload::WorkloadFeatures& ch, double w) const;

  /// Predict the same workload at several candidate weight ratios in one
  /// batched pass per target model. Each entry is bit-identical to
  /// predict(ch, ws[i]).
  void predict_batch(const workload::WorkloadFeatures& ch,
                     std::span<const double> ws,
                     std::span<TpmPrediction> out) const;

  /// Per-target-column R^2 on held-out data: {read R^2, write R^2}.
  std::pair<double, double> score(const ml::Dataset& data) const;

  /// Breiman feature importances of the read-throughput model; indices
  /// match tpm_row layout. Only available for Random Forest models.
  std::vector<double> feature_importances() const;

  const ml::MultiOutputRegressor& model() const { return *model_; }

  /// Persist a fitted Random-Forest TPM to a file (train once, reuse in
  /// later runs / the CLI). Only forest-backed TPMs can be saved.
  void save_file(const std::string& path) const;
  /// Load a TPM previously written by save_file.
  static Tpm load_file(const std::string& path);

 private:
  std::unique_ptr<ml::MultiOutputRegressor> model_;
  bool is_forest_ = false;
  bool fitted_ = false;
};

}  // namespace src::core

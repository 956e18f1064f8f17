#include "core/tpm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "core/standalone.hpp"
#include "ml/metrics.hpp"
#include "runner/runner.hpp"

namespace src::core {

std::vector<double> tpm_row(const workload::WorkloadFeatures& ch, double w) {
  std::vector<double> row;
  row.reserve(kTpmFeatureCount);
  for (double v : ch.as_array()) row.push_back(v);
  row.push_back(w);
  return row;
}

ml::Dataset collect_training_data(const ssd::SsdConfig& config, const TraceSource& source,
                                  std::span<const std::uint32_t> weight_ratios,
                                  std::uint64_t seed, std::size_t threads) {
  // Trace t comes from the source, and its features are extracted (they do
  // not depend on w), on the worker that first reaches one of its cells;
  // the worker that finishes its last cell frees it.
  struct Slot {
    std::once_flag ready;
    const workload::Trace* trace = nullptr;
    workload::Trace storage;
    workload::WorkloadFeatures features;
    std::atomic<std::size_t> cells_left;
  };
  const std::size_t per_trace = weight_ratios.size();
  std::vector<Slot> slots(source.count);
  for (Slot& slot : slots) slot.cells_left.store(per_trace, std::memory_order_relaxed);

  struct Sample {
    std::vector<double> x;
    std::array<double, 2> y;
  };
  std::vector<Sample> samples(source.count * per_trace);

  // Cells are independent simulations; the runner collects them in
  // submission order for any worker count. Seeds stay `seed + i` (not
  // runner::derive_seed) so datasets match those published by earlier PRs.
  runner::SweepRunner pool(threads);
  pool.run(samples.size(), [&](std::size_t i) {
    Slot& slot = slots[i / per_trace];
    std::call_once(slot.ready, [&] {
      slot.trace = &source.trace(i / per_trace, slot.storage);
      slot.features = workload::extract_features(*slot.trace);
    });
    const std::uint32_t weight = weight_ratios[i % per_trace];
    StandaloneOptions options;
    options.weight_ratio = weight;
    options.seed = seed + i;
    options.horizon = arrival_horizon(*slot.trace);
    const StandaloneResult result = run_standalone(config, *slot.trace, options);
    samples[i].x = tpm_row(slot.features, static_cast<double>(weight));
    samples[i].y = {result.read_rate.as_bytes_per_second(),
                    result.write_rate.as_bytes_per_second()};
    if (slot.cells_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      slot.storage = workload::Trace();
    }
  });

  ml::Dataset data(kTpmFeatureCount, 2);
  for (const auto& sample : samples) data.add(sample.x, sample.y);
  return data;
}

ml::Dataset collect_training_data(const ssd::SsdConfig& config,
                                  const TrainingGrid& grid) {
  const TraceSource lent{grid.traces.size(),
                         [&grid](std::size_t t, workload::Trace&) -> const workload::Trace& {
                           return grid.traces[t];
                         }};
  return collect_training_data(config, lent, grid.weight_ratios, grid.seed, grid.threads);
}

Tpm::Tpm(ml::ForestConfig forest) : is_forest_(true) {
  const ml::RandomForestRegressor prototype(forest);
  model_ = std::make_unique<ml::MultiOutputRegressor>(prototype, 2);
}

Tpm::Tpm(const ml::Regressor& prototype) {
  is_forest_ = dynamic_cast<const ml::RandomForestRegressor*>(&prototype) != nullptr;
  model_ = std::make_unique<ml::MultiOutputRegressor>(prototype, 2);
}

void Tpm::fit(const ml::Dataset& data) {
  if (data.feature_count() != kTpmFeatureCount || data.target_count() != 2) {
    throw std::invalid_argument("Tpm::fit: dataset shape mismatch");
  }
  model_->fit(data);
  fitted_ = true;
}

TpmPrediction Tpm::predict(const workload::WorkloadFeatures& ch, double w) const {
  if (!fitted_) throw std::runtime_error("Tpm: not fitted");
  const std::vector<double> row = tpm_row(ch, w);
  const std::vector<double> out = model_->predict(row);
  return TpmPrediction{out[0], out[1]};
}

double Tpm::predict_read(const workload::WorkloadFeatures& ch, double w) const {
  if (!fitted_) throw std::runtime_error("Tpm: not fitted");
  std::array<double, kTpmFeatureCount> row;
  const auto features = ch.as_array();
  std::copy(features.begin(), features.end(), row.begin());
  row.back() = w;
  return model_->model(0).predict(row);
}

void Tpm::predict_batch(const workload::WorkloadFeatures& ch,
                        std::span<const double> ws,
                        std::span<TpmPrediction> out) const {
  if (!fitted_) throw std::runtime_error("Tpm: not fitted");
  if (ws.size() != out.size()) {
    throw std::invalid_argument("Tpm::predict_batch: ws/out size mismatch");
  }
  const std::size_t n = ws.size();
  if (n == 0) return;
  std::vector<double> rows(n * kTpmFeatureCount);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double> row = tpm_row(ch, ws[i]);
    std::copy(row.begin(), row.end(), rows.begin() + static_cast<std::ptrdiff_t>(i * kTpmFeatureCount));
  }
  std::vector<double> reads(n), writes(n);
  model_->model(0).predict_batch(rows, kTpmFeatureCount, reads);
  model_->model(1).predict_batch(rows, kTpmFeatureCount, writes);
  for (std::size_t i = 0; i < n; ++i) out[i] = TpmPrediction{reads[i], writes[i]};
}

std::pair<double, double> Tpm::score(const ml::Dataset& data) const {
  if (!fitted_) throw std::runtime_error("Tpm: not fitted");
  return {model_->model(0).score(data, 0), model_->model(1).score(data, 1)};
}

void Tpm::save_file(const std::string& path) const {
  if (!is_forest_ || !fitted_) {
    throw std::runtime_error("Tpm::save_file: only fitted forest TPMs can be saved");
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tpm::save_file: cannot open " + path);
  out << "tpm 1 " << kTpmFeatureCount << " 2\n";
  for (std::size_t t = 0; t < 2; ++t) {
    static_cast<const ml::RandomForestRegressor&>(model_->model(t)).save(out);
  }
}

Tpm Tpm::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Tpm::load_file: cannot open " + path);
  std::string tag;
  int version = 0;
  std::size_t features = 0, targets = 0;
  in >> tag >> version >> features >> targets;
  if (tag != "tpm" || version != 1 || features != kTpmFeatureCount || targets != 2) {
    throw std::runtime_error("Tpm::load_file: incompatible model file " + path);
  }
  Tpm tpm;  // forest-backed by default
  for (std::size_t t = 0; t < 2; ++t) {
    auto& forest = const_cast<ml::RandomForestRegressor&>(
        static_cast<const ml::RandomForestRegressor&>(tpm.model_->model(t)));
    forest.load(in);
  }
  tpm.fitted_ = true;
  return tpm;
}

std::vector<double> Tpm::feature_importances() const {
  if (!is_forest_ || !fitted_) return {};
  const auto& forest =
      static_cast<const ml::RandomForestRegressor&>(model_->model(0));
  return forest.feature_importances();
}

}  // namespace src::core

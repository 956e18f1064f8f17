#include "training.hpp"

#include <array>
#include <cmath>
#include <exception>
#include <memory>

#include "core/standalone.hpp"
#include "obs/obs.hpp"
#include "runner/runner.hpp"

namespace perfbench {

CellTrace redrive_cells(const src::ssd::SsdConfig& ssd,
                        const src::core::TrainingGrid& grid, bool observe,
                        SpanLog& spans) {
  struct Cell {
    std::size_t trace;
    std::uint32_t weight;
  };
  std::vector<Cell> cells;
  for (std::size_t t = 0; t < grid.traces.size(); ++t) {
    for (const std::uint32_t w : grid.weight_ratios) cells.push_back(Cell{t, w});
  }
  std::vector<src::workload::WorkloadFeatures> features(grid.traces.size());
  for (std::size_t t = 0; t < grid.traces.size(); ++t) {
    features[t] = src::workload::extract_features(grid.traces[t]);
  }

  struct Sample {
    std::vector<double> x;
    std::array<double, 2> y{};
    double seconds = 0.0;
    std::uint64_t events = 0;
    bool ok = false;
    std::unique_ptr<src::obs::Observatory> observatory;
  };
  std::vector<Sample> samples(cells.size());

  CellTrace out;
  src::runner::SweepRunner pool(grid.threads);
  out.threads = pool.thread_count();
  const Stopwatch wall;
  pool.run(cells.size(), [&](std::size_t i) {
    Sample& sample = samples[i];
    // Each cell records into its own observatory (the scope is per thread).
    if (observe) {
      sample.observatory = std::make_unique<src::obs::Observatory>(
          src::obs::ObsConfig{.tracing = false, .trace_capacity = 1});
    }
    const src::obs::ObsScope scope(sample.observatory.get());
    SpanLog::Span span(spans, "core", observe ? "run_standalone.observed" : "run_standalone");
    try {
      src::core::StandaloneOptions options;
      options.weight_ratio = cells[i].weight;
      options.seed = grid.seed + i;
      options.horizon = src::core::arrival_horizon(grid.traces[cells[i].trace]);
      const src::core::StandaloneResult result =
          src::core::run_standalone(ssd, grid.traces[cells[i].trace], options);
      sample.x = src::core::tpm_row(features[cells[i].trace],
                                    static_cast<double>(cells[i].weight));
      sample.y = {result.read_rate.as_bytes_per_second(),
                  result.write_rate.as_bytes_per_second()};
      sample.events = result.events_executed;
      sample.ok = std::isfinite(sample.y[0]) && std::isfinite(sample.y[1]);
    } catch (const std::exception&) {
      sample.ok = false;
    }
    sample.seconds = span.stop();
  });
  out.wall_seconds = wall.seconds();

  for (const Sample& sample : samples) {
    out.cell_seconds.push_back(sample.seconds);
    out.events += sample.events;
    if (!sample.ok) {
      ++out.failed_cells;
      continue;
    }
    out.data.add(sample.x, sample.y);
    if (!sample.observatory) continue;
    const src::obs::MetricRegistry& metrics = sample.observatory->metrics();
    for (const char* name :
         {"nvme.dispatched_reads", "nvme.dispatched_writes",
          "nvme.ssq.fetched_from_rsq", "nvme.ssq.fetched_from_wsq",
          "nvme.ssq.borrowed_fetches", "ssd.cache_absorbed_writes"}) {
      if (const src::obs::Counter* c = metrics.find_counter(name)) {
        out.counters[name] += c->value();
      }
    }
  }
  return out;
}

double CellTrace::busy_frac() const {
  double busy = 0.0;
  for (const double s : cell_seconds) busy += s;
  const double capacity = wall_seconds * static_cast<double>(threads);
  return capacity > 0.0 ? busy / capacity : 0.0;
}

bool labels_sane(const src::ml::Dataset& data) {
  bool any_positive = false;
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t t = 0; t < data.target_count(); ++t) {
      const double y = data.target(i, t);
      if (!std::isfinite(y) || y < 0.0) return false;
      any_positive = any_positive || y > 0.0;
    }
  }
  return any_positive;
}

bool same_dataset(const src::ml::Dataset& a, const src::ml::Dataset& b) {
  if (a.size() != b.size() || a.feature_count() != b.feature_count() ||
      a.target_count() != b.target_count()) {
    return false;
  }
  const auto fa = a.features();
  const auto fb = b.features();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i] != fb[i]) return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t t = 0; t < a.target_count(); ++t) {
      if (a.target(i, t) != b.target(i, t)) return false;
    }
  }
  return true;
}

double mean_label_gbps(const src::ml::Dataset& data) {
  if (data.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    sum += data.target(i, 0) + data.target(i, 1);
  }
  return sum / static_cast<double>(data.size()) * 8.0 / 1e9;
}

double predict_us_per_call(const src::core::Tpm& tpm,
                           const std::vector<src::workload::WorkloadFeatures>& vectors,
                           double min_seconds) {
  if (vectors.empty()) return 0.0;
  const std::array<std::array<double, 4>, 2> blocks{{{1, 2, 3, 4}, {5, 6, 7, 8}}};
  std::array<src::core::TpmPrediction, 4> out{};
  std::uint64_t calls = 0;
  const Stopwatch sw;
  do {
    for (const src::workload::WorkloadFeatures& ch : vectors) {
      for (const auto& ws : blocks) {
        tpm.predict_batch(ch, ws, out);
        ++calls;
      }
    }
  } while (sw.seconds() < min_seconds);
  return sw.seconds() * 1e6 / static_cast<double>(calls);
}

std::vector<src::workload::WorkloadFeatures> dataset_features(
    const src::ml::Dataset& data) {
  std::vector<src::workload::WorkloadFeatures> out;
  out.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = data.row(i);
    src::workload::WorkloadFeatures f;
    f.read_ratio = row[0];
    f.read_size_scv = row[1];
    f.write_size_scv = row[2];
    f.read_iat_scv = row[3];
    f.write_iat_scv = row[4];
    f.read_flow_speed = row[5];
    f.write_flow_speed = row[6];
    f.read_mean_size = row[7];
    f.write_mean_size = row[8];
    out.push_back(f);
  }
  return out;
}

}  // namespace perfbench

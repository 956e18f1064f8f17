// The benchmark's workloads. Each one sets up its inputs from the seed
// (timed as set-up), repeats a fixed instance set for the requested seconds
// (each repetition is one timed round), checks every instance, and reads the
// per-layer numbers off result structs, the rig probe and the obs counters.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/podscale.hpp"
#include "core/presets.hpp"
#include "obs/obs.hpp"
#include "perfbench.hpp"
#include "probe.hpp"
#include "scenario/build.hpp"
#include "scenario/serialize.hpp"
#include "ssd/config.hpp"
#include "training.hpp"
#include "workload/features.hpp"

namespace perfbench {

namespace {

namespace core = src::core;
namespace scenario = src::scenario;

/// fig9 instances per round (seeds base .. base+3).
constexpr std::size_t kVdiInstances = 4;
/// Pod in-cast instances per round (seeds base .. base+7). The manifest
/// carries 1/8 of the pod_scale deg=16 request counts, so a round simulates
/// about as many events as one full-size instance, in samples short enough
/// to time on a shared host.
constexpr std::size_t kPodInstances = 8;
/// Pod set-up (parse + build_pod) takes well under a millisecond; it is
/// repeated this many times before the first round and in every round.
constexpr std::size_t kPodSetupReps = 5;
/// collect_training_data parallelism in tpm_train (one per core on the
/// 4-core reference box).
constexpr std::size_t kTrainingThreads = 4;
/// Requests per training stream: the default_training_grid / srcctl value.
constexpr std::size_t kTrainingRequests = 6000;
/// Batches tpm_train collects its grid in (15 traces x 8 weights each).
constexpr std::size_t kTrainingBatches = 4;
/// A held-out read R^2 below this means the TPM no longer predicts.
constexpr double kMinHeldOutR2Read = 0.5;
/// Rounds a run repeats at least, so every instance is timed three times.
constexpr std::size_t kMinRounds = 3;

using TraceFactory = std::function<src::workload::Trace(std::size_t)>;

/// Records and host time a run's trace factory produced.
struct TraceCount {
  std::uint64_t records = 0;
  double seconds = 0.0;
};

/// Wraps a run's trace factory (it runs inside core::run_experiment and
/// core::run_pod_experiment) so generation is timed and counted.
TraceFactory counted(TraceFactory inner, TraceCount& count, SpanLog& spans) {
  return [inner = std::move(inner), &count, &spans](std::size_t index) {
    SpanLog::Span span(spans, "workload", "trace_for");
    src::workload::Trace trace = inner(index);
    count.seconds += span.stop();
    count.records += trace.size();
    return trace;
  };
}

/// Runs a set-up step `reps` times, appending each repetition's seconds.
/// Workloads with a cheap set-up repeat it between timed rounds too, so its
/// median samples the whole run rather than one moment of a shared host.
template <typename F>
void repeat_setup(std::vector<double>& times, std::size_t reps, F&& step) {
  for (std::size_t i = 0; i < reps; ++i) {
    const Stopwatch one;
    step();
    times.push_back(one.seconds());
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void print_digest(const std::string& workload, std::uint64_t seed,
                  std::uint64_t digest) {
  std::printf("digest %s seed=%llu %s\n", workload.c_str(),
              static_cast<unsigned long long>(seed), hex64(digest).c_str());
}

/// Splits a training grid by trace into `parts` sub-grids. Cell i of a
/// grid is seeded grid.seed + i, so each sub-grid's seed is offset by the
/// cells before it: the sub-grids' datasets, concatenated in order, equal
/// the full grid's.
std::vector<core::TrainingGrid> split_grid(const core::TrainingGrid& grid,
                                           std::size_t parts) {
  std::vector<core::TrainingGrid> out;
  const std::size_t per = (grid.traces.size() + parts - 1) / parts;
  for (std::size_t begin = 0; begin < grid.traces.size(); begin += per) {
    const std::size_t end = std::min(begin + per, grid.traces.size());
    core::TrainingGrid part;
    part.traces.assign(grid.traces.begin() + static_cast<std::ptrdiff_t>(begin),
                       grid.traces.begin() + static_cast<std::ptrdiff_t>(end));
    part.weight_ratios = grid.weight_ratios;
    part.threads = grid.threads;
    part.seed = grid.seed + begin * grid.weight_ratios.size();
    out.push_back(std::move(part));
  }
  return out;
}

void append_rows(src::ml::Dataset& into, const src::ml::Dataset& from) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    const std::array<double, 2> y{from.target(i, 0), from.target(i, 1)};
    into.add(from.row(i), y);
  }
}

// ---------------------------------------------------------------- vdi_src

struct VdiInstance {
  bool ok = false;
  std::uint64_t digest = 0;
  double run_seconds = 0.0;
  RigStats rig;
  TraceCount trace;
  core::ExperimentResult result;
};

/// Every request is accounted for across the layers, and no guardrail or
/// retry path fired. fig9 is congested by design and ends at max_time with
/// requests still in flight, so accounting is stage by stage: a request is
/// issued by its initiator, accepted by a target driver, completed by the
/// driver (= served by the target), then completed at the initiator; each
/// stage holds no more than the one before, and issued = completed + failed
/// + in flight at max_time.
bool vdi_accounting_ok(const VdiInstance& in) {
  const RigStats& s = in.rig;
  const core::ExperimentResult& r = in.result;
  if (!s.captured) return false;
  const bool reads = s.reads_issued >= s.driver_accepted_reads &&
                     s.driver_accepted_reads >= s.driver_completed_reads &&
                     s.driver_completed_reads == s.reads_served &&
                     s.reads_served >= s.reads_completed + s.reads_failed;
  const bool writes = s.writes_issued >= s.driver_accepted_writes &&
                      s.driver_accepted_writes >= s.driver_completed_writes &&
                      s.driver_completed_writes == s.writes_served &&
                      s.writes_served >= s.writes_completed + s.writes_failed;
  const std::uint64_t issued = s.reads_issued + s.writes_issued;
  const std::uint64_t finished =
      s.reads_completed + s.writes_completed + s.reads_failed + s.writes_failed;
  // Every generated record was issued; a run that completed has nothing
  // left in flight.
  const bool balanced =
      issued == in.trace.records && (!r.completed || finished == issued);
  const bool healthy = s.reads_failed == 0 && s.writes_failed == 0 && s.retries == 0 &&
                       s.timeouts == 0 && r.controller_stats.invalid_demand_events == 0 &&
                       r.controller_stats.rejected_predictions == 0 &&
                       r.controller_stats.watchdog_decays == 0;
  return reads && writes && balanced && healthy;
}

void run_vdi_instance(const scenario::ScenarioSpec& base, std::uint64_t seed,
                      const core::Tpm* tpm, src::obs::Observatory* observatory,
                      SpanLog& spans, VdiInstance& out) {
  scenario::ScenarioSpec spec = base;
  spec.seed = seed;
  scenario::BuildOptions options;
  options.tpm = tpm;
  options.observatory = observatory;
  scenario::BuiltScenario built;
  {
    SpanLog::Span span(spans, "scenario", "build");
    built = scenario::build(spec, options);
  }
  attach_probe(built.config, out.rig);
  built.config.trace_for = counted(std::move(built.config.trace_for), out.trace, spans);
  SpanLog::Span span(spans, "core", observatory ? "run_experiment.observed"
                                                : "run_experiment");
  out.result = core::run_experiment(built.config);
  out.run_seconds = span.stop();
  out.digest = result_digest(out.result);
  out.ok = vdi_accounting_ok(out);
}

/// Runs an instance, turning an exception into a failed instance.
VdiInstance try_vdi_instance(const scenario::ScenarioSpec& base, std::uint64_t seed,
                             const core::Tpm* tpm, src::obs::Observatory* observatory,
                             SpanLog& spans) {
  VdiInstance inst;
  try {
    run_vdi_instance(base, seed, tpm, observatory, spans, inst);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "vdi_src seed=%llu failed: %s\n",
                 static_cast<unsigned long long>(seed), err.what());
    inst.ok = false;
  }
  return inst;
}

/// fig9 feature vectors: the instance's trace cut into SRC prediction
/// windows, each reduced to the Ch vector the workload monitor would see.
std::vector<src::workload::WorkloadFeatures> vdi_feature_vectors(
    const scenario::ScenarioSpec& base, std::uint64_t seed, const core::Tpm* tpm) {
  scenario::ScenarioSpec spec = base;
  spec.seed = seed;
  scenario::BuildOptions options;
  options.tpm = tpm;
  const scenario::BuiltScenario built = scenario::build(spec, options);
  const src::workload::Trace trace = built.config.trace_for(0);
  const src::common::SimTime window = spec.src.params.prediction_window;
  std::vector<src::workload::WorkloadFeatures> vectors;
  auto begin = trace.begin();
  while (begin != trace.end()) {
    const src::common::SimTime end_time = begin->arrival + window;
    const auto end = std::find_if(begin, trace.end(), [end_time](const auto& rec) {
      return rec.arrival >= end_time;
    });
    vectors.push_back(src::workload::extract_features(
        std::span(&*begin, static_cast<std::size_t>(end - begin)), window));
    begin = end;
  }
  return vectors;
}

void shrink_vdi(scenario::ScenarioSpec& spec) {
  for (scenario::WorkloadSpec& w : spec.workloads) {
    w.synthetic.read.count /= 10;
    w.synthetic.write.count /= 10;
  }
}

/// Where set-up time goes: build() trains the TPM internally, so the traced
/// run re-drives the same training cells and fit from outside, and checks the
/// re-fitted model predicts exactly like the one set-up produced.
void vdi_setup_attribution(const scenario::ScenarioSpec& spec, const core::Tpm& tpm,
                           SpanLog& spans, Outcome& out) {
  core::TrainingGrid grid =
      core::default_training_grid(kTrainingRequests, spec.src.tpm.train_seed);
  const CellTrace cells = redrive_cells(spec.ssd, grid, /*observe=*/false, spans);
  core::Tpm refit;
  SpanLog::Span fit_span(spans, "ml", "Tpm::fit");
  refit.fit(cells.data);
  out.metrics["ml.fit_s"] = fit_span.stop();

  const auto vectors = dataset_features(cells.data);
  bool same = cells.failed_cells == 0;
  for (std::size_t i = 0; i < vectors.size() && same; i += 7) {
    const double w = cells.data.row(i)[core::kTpmFeatureCount - 1];
    const core::TpmPrediction a = tpm.predict(vectors[i], w);
    const core::TpmPrediction b = refit.predict(vectors[i], w);
    same = a.read_bytes_per_sec == b.read_bytes_per_sec &&
           a.write_bytes_per_sec == b.write_bytes_per_sec;
  }
  if (!same) {
    out.extra_checks_ok = false;
    out.notes.push_back("training re-drive did not reproduce the set-up TPM");
  }
  out.metrics["core.standalone_cell_ms_p50"] = quantile(cells.cell_seconds, 0.5) * 1e3;
  out.metrics["core.standalone_cell_ms_p95"] = quantile(cells.cell_seconds, 0.95) * 1e3;
  out.metrics["runner.cells"] = static_cast<double>(cells.cell_seconds.size());
  out.metrics["runner.busy_frac"] = cells.busy_frac();
}

/// Held-out accuracy (paper Table I): a grid from a disjoint seed, scored.
std::pair<double, double> held_out_r2(const core::Tpm& tpm, const src::ssd::SsdConfig& ssd,
                                      std::size_t requests, std::uint64_t train_seed,
                                      SpanLog& spans,
                                      std::vector<src::workload::WorkloadFeatures>* vectors) {
  core::TrainingGrid grid =
      core::default_training_grid(requests, train_seed + kHeldOutSeedOffset);
  grid.threads = kTrainingThreads;
  SpanLog::Span span(spans, "core", "collect_training_data.held_out");
  const src::ml::Dataset test = core::collect_training_data(ssd, grid);
  span.stop();
  if (vectors != nullptr) *vectors = dataset_features(test);
  SpanLog::Span score_span(spans, "ml", "Tpm::score");
  return tpm.score(test);
}

}  // namespace

Outcome run_vdi_src(const Args& args, SpanLog& spans) {
  Outcome out;
  const std::string manifest = args.root + "/examples/scenarios/fig9.json";

  // Set-up, as `srcctl run fig9.json` does it: parse the manifest, then
  // build, which trains the TPM ("train-default").
  scenario::ScenarioSpec spec;
  std::shared_ptr<const core::Tpm> tpm;
  std::vector<double> parse_s, build_s, setup_s;
  repeat_setup(setup_s, args.tiny ? 1 : 3, [&] {
    SpanLog::Span parse(spans, "scenario", "parse");
    spec = scenario::load_scenario_file(manifest);
    parse_s.push_back(parse.stop());
    if (args.tiny) shrink_vdi(spec);
    SpanLog::Span build(spans, "scenario", "build.train");
    const scenario::BuiltScenario built = scenario::build(spec);
    build_s.push_back(build.stop());
    tpm = built.owned_tpm;
  });
  if (!tpm || !tpm->fitted()) {
    throw std::runtime_error(manifest + ": set-up produced no fitted TPM");
  }

  // Timed phase: the fixed instance set (seeds base .. base+n-1), repeated.
  // Each instance is timed on its own (build + run), so its fastest
  // repetition can be picked out of a contended stretch.
  const std::size_t n = args.tiny ? 1 : kVdiInstances;
  std::vector<VdiInstance> first;
  std::vector<double> run_s;
  std::vector<std::vector<double>> instance_s(n);
  timed_rounds(args.seconds, kMinRounds, [&](std::size_t round) {
    for (std::size_t i = 0; i < n; ++i) {
      const CpuPin pin(round + i);
      const Stopwatch sw;
      VdiInstance inst = try_vdi_instance(spec, args.seed + i, tpm.get(), nullptr, spans);
      instance_s[i].push_back(sw.seconds());
      run_s.push_back(inst.run_seconds);
      if (round == 0) {
        first.push_back(inst);
      } else {
        inst.ok = inst.ok && inst.digest == first[i].digest;  // deterministic
      }
      out.count(inst.ok);
    }
  });
  double wall_s = 0.0;
  for (const std::vector<double>& times : instance_s) wall_s += fastest(times);
  for (std::size_t i = 0; i < n; ++i) print_digest(args.workload, args.seed + i, first[i].digest);

  // Observability on must not change the simulation: a traced instance is
  // bit-identical to the untraced one.
  src::obs::Observatory observatory;
  {
    const VdiInstance traced = try_vdi_instance(spec, args.seed, tpm.get(), &observatory, spans);
    out.count(traced.ok && traced.digest == first[0].digest);
  }

  double aggregate_gbps = 0.0;
  RigStats rig;
  rig.captured = true;
  TraceCount generated;
  std::uint64_t events = 0;
  src::common::LatencyRecorder read_latency;
  for (const VdiInstance& inst : first) {
    aggregate_gbps += inst.result.aggregate_rate().as_gbps() / static_cast<double>(n);
    rig.add(inst.rig);
    generated.records += inst.trace.records;
    generated.seconds += inst.trace.seconds;
    events += inst.result.events_executed;
    read_latency.merge(inst.result.read_latency);
  }

  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  m["wall_s"] = wall_s;
  m["core.sim_aggregate_gbps"] = aggregate_gbps;

  m["sim.events"] = static_cast<double>(events);
  m["sim.events_per_s"] = ratio(static_cast<double>(events), wall_s);
  m["net.packets_forwarded"] = static_cast<double>(rig.packets_forwarded);
  m["net.events_per_packet"] =
      ratio(static_cast<double>(events), static_cast<double>(rig.packets_forwarded));
  m["net.max_queue_kb"] = static_cast<double>(rig.max_queue_bytes) / 1024.0;
  m["net.ecn_marks"] = static_cast<double>(rig.ecn_marks);
  m["net.cnps"] = static_cast<double>(rig.cnps_received);
  m["net.pfc_pauses"] = static_cast<double>(rig.pfc_pauses_sent);
  const double issued = static_cast<double>(rig.reads_issued + rig.writes_issued);
  m["fabric.requests_issued"] = issued;
  m["fabric.completed_frac"] =
      ratio(static_cast<double>(rig.reads_completed + rig.writes_completed), issued);
  m["fabric.read_latency_us_p50"] = read_latency.p50_us();
  m["fabric.read_latency_us_p99"] = read_latency.p99_us();
  m["fabric.retries"] = static_cast<double>(rig.retries);
  const double fetched = static_cast<double>(rig.fetched_rsq + rig.fetched_wsq);
  m["nvme.commands"] = static_cast<double>(rig.commands);
  m["nvme.ssq.wsq_fetch_frac"] = ratio(static_cast<double>(rig.fetched_wsq), fetched);
  m["nvme.ssq.borrowed_frac"] = ratio(static_cast<double>(rig.borrowed), fetched);
  m["ssd.cmt_hit_ratio"] = ratio(rig.cmt_hit_ratio_sum, static_cast<double>(rig.devices));
  m["ssd.chip_utilization"] =
      ratio(rig.chip_utilization_sum, static_cast<double>(rig.devices));
  m["ssd.cache_absorbed_frac"] = ratio(static_cast<double>(rig.cache_absorbed_writes),
                                       static_cast<double>(rig.device_writes));
  m["core.run_ms_p50"] = median(run_s) * 1e3;
  m["core.src.adjustments"] = static_cast<double>(rig.adjustments);
  m["core.src.weight_change_frac"] = ratio(static_cast<double>(rig.weight_changes),
                                           static_cast<double>(rig.adjustments));
  m["workload.records"] = static_cast<double>(generated.records);
  m["workload.gen_s"] = generated.seconds;
  m["scenario.parse_ms"] = median(parse_s) * 1e3;
  m["scenario.build_ms"] = median(build_s) * 1e3;

  if (!args.trace) return out;

  m["obs.trace_dropped"] = static_cast<double>(observatory.tracer().dropped());
  write_text(args.out_dir + "/obs_metrics.json", observatory.metrics_json());
  write_text(args.out_dir + "/obs_trace.json", observatory.trace_json());

  vdi_setup_attribution(spec, *tpm, spans, out);
  m["ml.predict_us_per_call"] =
      predict_us_per_call(*tpm, vdi_feature_vectors(spec, args.seed, tpm.get()), 0.25);
  const auto [r2_read, r2_write] = held_out_r2(
      *tpm, spec.ssd, kTrainingRequests, spec.src.tpm.train_seed, spans, nullptr);
  m["ml.r2_read"] = r2_read;
  m["ml.r2_write"] = r2_write;

  // What observation costs: instance 0 untraced vs with a tracing
  // observatory, interleaved.
  std::vector<double> plain, observed;
  for (int pair = 0; pair < 3; ++pair) {
    plain.push_back(try_vdi_instance(spec, args.seed, tpm.get(), nullptr, spans).run_seconds);
    src::obs::Observatory o;
    observed.push_back(try_vdi_instance(spec, args.seed, tpm.get(), &o, spans).run_seconds);
  }
  m["obs.trace_overhead_frac"] = ratio(median(observed), median(plain)) - 1.0;
  return out;
}

// ------------------------------------------------------------- pod_incast

namespace {

void shrink_pod(scenario::ScenarioSpec& spec) {
  spec.topology.pod.pods = 2;
  spec.topology.pod.racks_per_pod = 2;
  spec.topology.pod.hosts_per_rack = 8;
  spec.max_time = 60 * src::common::kMillisecond;
  for (scenario::WorkloadSpec& w : spec.workloads) {
    w.micro.read.count /= 6;
    w.micro.write.count /= 6;
  }
}

std::uint64_t pod_bytes(const core::PodExperimentResult& r) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : r.per_initiator_read_bytes) total += b;
  for (const std::uint64_t b : r.per_target_write_bytes) total += b;
  return total;
}

}  // namespace

Outcome run_pod_incast(const Args& args, SpanLog& spans, std::size_t lanes) {
  Outcome out;
  const std::string manifest = args.root + "/perfbench/manifests/pod_incast_deg16.json";
  const std::size_t n = args.tiny ? 1 : kPodInstances;

  // Set-up: parse the manifest, then build one config per instance seed.
  std::vector<double> parse_s, build_s, setup_s;
  const auto set_up = [&] {
    SpanLog::Span parse(spans, "scenario", "parse");
    scenario::ScenarioSpec spec = scenario::load_scenario_file(manifest);
    parse_s.push_back(parse.stop());
    if (args.tiny) shrink_pod(spec);
    spec.lanes = lanes;
    SpanLog::Span build(spans, "scenario", "build_pod");
    std::vector<core::PodExperimentConfig> built;
    for (std::size_t i = 0; i < n; ++i) {
      spec.seed = args.seed + i;
      built.push_back(scenario::build_pod(spec));
    }
    build_s.push_back(build.stop());
    return built;
  };
  std::vector<core::PodExperimentConfig> configs;
  repeat_setup(setup_s, kPodSetupReps, [&] { configs = set_up(); });
  std::vector<TraceCount> generated(n);
  for (std::size_t i = 0; i < n; ++i) {
    configs[i].trace_for = counted(std::move(configs[i].trace_for), generated[i], spans);
  }

  const auto run = [&](std::size_t i, std::size_t lane_count, std::size_t rotation,
                       std::vector<double>& times) {
    std::optional<CpuPin> pin;
    if (lane_count == 1) pin.emplace(rotation);  // lanes=1 runs on this thread
    core::PodExperimentConfig config = configs[i];
    config.lanes = lane_count;
    SpanLog::Span span(spans, "core", "run_pod_experiment.lanes" + std::to_string(lane_count));
    core::PodExperimentResult result = core::run_pod_experiment(config);
    times.push_back(span.stop());
    return result;
  };

  // Timed phase: the instance set at this workload's lane count, repeated.
  std::vector<core::PodExperimentResult> first(n);
  std::vector<std::string> snapshots(n);
  std::vector<std::vector<double>> instance_s(n);
  std::vector<double> run_s;
  timed_rounds(args.seconds, kMinRounds, [&](std::size_t round) {
    repeat_setup(setup_s, kPodSetupReps, set_up);
    for (std::size_t i = 0; i < n; ++i) {
      bool ok = false;
      try {
        const core::PodExperimentResult result = run(i, lanes, round + i, instance_s[i]);
        if (round == 0) {
          first[i] = result;
          snapshots[i] = result.snapshot();
        }
        ok = result.completed && result.snapshot() == snapshots[i];  // deterministic
      } catch (const std::exception& err) {
        std::fprintf(stderr, "pod run failed: %s\n", err.what());
      }
      run_s.push_back(instance_s[i].empty() ? 0.0 : instance_s[i].back());
      out.count(ok);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    print_digest(args.workload, args.seed + i, fnv1a(snapshots[i]));
  }

  // Lane-count invariance: each instance at the other lane count must
  // produce the identical snapshot.
  const std::size_t other = lanes == 1 ? 4 : 1;
  std::vector<std::vector<double>> other_s(n);
  for (std::size_t pass = 0; pass < (args.trace ? 2u : 1u); ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      bool ok = false;
      try {
        ok = run(i, other, pass + i, other_s[i]).snapshot() == snapshots[i];
      } catch (const std::exception& err) {
        std::fprintf(stderr, "pod run (lanes=%zu) failed: %s\n", other, err.what());
      }
      out.count(ok);
    }
  }

  double wall_s = 0.0, other_wall_s = 0.0, gbps = 0.0;
  std::uint64_t events = 0, cross = 0, pauses = 0, records = 0;
  double gen_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    wall_s += fastest(instance_s[i]);
    other_wall_s += fastest(other_s[i]);
    // bytes * 8 / ns = Gbit/s
    gbps += ratio(static_cast<double>(pod_bytes(first[i])) * 8.0,
                  static_cast<double>(first[i].end_time)) / static_cast<double>(n);
    events += first[i].events_executed;
    cross += first[i].cross_shard_messages;
    pauses += first[i].total_pauses;
    // Every round regenerates the same traces; report one round's worth.
    const double rounds = static_cast<double>(instance_s[i].size() + other_s[i].size());
    records += generated[i].records / static_cast<std::uint64_t>(rounds);
    gen_s += generated[i].seconds / rounds;
  }

  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  m["wall_s"] = wall_s;
  m["core.sim_aggregate_gbps"] = gbps;
  m["sim.events"] = static_cast<double>(events);
  m["sim.events_per_s"] = ratio(static_cast<double>(events), wall_s);
  m["sim.cross_shard_frac"] = ratio(static_cast<double>(cross), static_cast<double>(events));
  m["sim.lane_speedup"] = lanes == 1 ? ratio(wall_s, other_wall_s) : ratio(other_wall_s, wall_s);
  m["net.pfc_pauses"] = static_cast<double>(pauses);
  m["core.run_ms_p50"] = median(run_s) * 1e3;
  m["workload.records"] = static_cast<double>(records);
  m["workload.gen_s"] = gen_s;
  m["scenario.parse_ms"] = median(parse_s) * 1e3;
  m["scenario.build_ms"] = median(build_s) * 1e3;
  out.notes.push_back(
      "pod runs show only result-struct counts (events, cross-shard mail, pauses, "
      "bytes): LaneGroup runs model code under ObsScope silent(nullptr) and "
      "PodExperimentConfig has no rig hook, so other net/fabric/nvme/ssd "
      "per-layer metrics read 0 here");
  return out;
}

// -------------------------------------------------------------- tpm_train

Outcome run_tpm_train(const Args& args, SpanLog& spans) {
  Outcome out;
  // Full size even with --tiny: smaller grids train a TPM too poor for the
  // held-out check, and one round takes about a second.
  const std::size_t requests = kTrainingRequests;
  const src::ssd::SsdConfig ssd = src::ssd::ssd_a();

  // Set-up: generate the grid's micro traces.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    SpanLog::Span span(spans, "workload", "default_training_grid");
    core::TrainingGrid built = core::default_training_grid(requests, args.seed);
    built.threads = kTrainingThreads;
    return built;
  };
  core::TrainingGrid grid;
  repeat_setup(setup_s, 3, [&] { grid = set_up(); });
  const std::size_t cells = grid.traces.size() * grid.weight_ratios.size();

  // Timed phase: collect every cell on 4 threads, then fit the forest. The
  // grid is collected in batches, each timed on its own so its fastest
  // repetition can be picked out of a contended stretch; the batches keep
  // their cells' seeds, so together they are exactly one full collection.
  const std::vector<core::TrainingGrid> batches = split_grid(grid, kTrainingBatches);
  src::ml::Dataset first(core::kTpmFeatureCount, 2);
  auto model = std::make_unique<core::Tpm>();
  std::vector<std::vector<double>> batch_s(batches.size());
  std::vector<double> fit_s;
  timed_rounds(args.seconds, kMinRounds, [&](std::size_t round) {
    repeat_setup(setup_s, 1, set_up);
    out.attempted += cells + 1;  // the cells and the fit
    try {
      src::ml::Dataset data(core::kTpmFeatureCount, 2);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        SpanLog::Span span(spans, "core", "collect_training_data");
        append_rows(data, core::collect_training_data(ssd, batches[b]));
        batch_s[b].push_back(span.stop());
      }
      SpanLog::Span fit(spans, "ml", "Tpm::fit");
      model = std::make_unique<core::Tpm>();
      model->fit(data);
      fit_s.push_back(fit.stop());
      if (round == 0) first = data;
      const bool ok = data.size() == cells && labels_sane(data) && same_dataset(data, first);
      if (!ok) out.failed += cells;
    } catch (const std::exception& err) {
      std::fprintf(stderr, "tpm_train round failed: %s\n", err.what());
      out.failed += cells + 1;
    }
  });
  double wall_s = fastest(fit_s);
  for (const std::vector<double>& times : batch_s) wall_s += fastest(times);
  std::uint64_t dataset_digest = 0;
  {
    std::string bytes(reinterpret_cast<const char*>(first.features().data()),
                      first.features().size() * sizeof(double));
    for (std::size_t i = 0; i < first.size(); ++i) {
      for (std::size_t t = 0; t < 2; ++t) {
        const double y = first.target(i, t);
        bytes.append(reinterpret_cast<const char*>(&y), sizeof y);
      }
    }
    dataset_digest = fnv1a(bytes);
  }
  print_digest(args.workload, args.seed, dataset_digest);

  // Held-out accuracy, outside the timed phase.
  std::vector<src::workload::WorkloadFeatures> held_out_vectors;
  const auto [r2_read, r2_write] =
      held_out_r2(*model, ssd, requests, args.seed, spans, &held_out_vectors);
  out.count(std::isfinite(r2_read) && std::isfinite(r2_write) &&
            r2_read >= kMinHeldOutR2Read);

  std::uint64_t records = 0;
  for (const auto& trace : grid.traces) records += trace.size();

  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  m["wall_s"] = wall_s;
  m["core.sim_aggregate_gbps"] = mean_label_gbps(first);

  m["ml.fit_s"] = median(fit_s);
  m["ml.r2_read"] = r2_read;
  m["ml.r2_write"] = r2_write;
  m["workload.records"] = static_cast<double>(records);
  m["workload.gen_s"] = median(setup_s);
  m["runner.cells"] = static_cast<double>(cells);

  if (!args.trace) return out;

  m["ml.predict_us_per_call"] = predict_us_per_call(*model, held_out_vectors, 0.25);

  // Per-cell host time: the same cells re-driven through SweepRunner, then
  // once more under per-cell observatories for the nvme/ssd counters. Both
  // must reproduce the collected dataset exactly.
  const CellTrace timed = redrive_cells(ssd, grid, /*observe=*/false, spans);
  const CellTrace observed = redrive_cells(ssd, grid, /*observe=*/true, spans);
  if (!same_dataset(timed.data, first) || !same_dataset(observed.data, first)) {
    out.extra_checks_ok = false;
    out.notes.push_back("cell re-drive did not reproduce collect_training_data");
  }
  const auto counter = [&](const char* name) {
    const auto it = observed.counters.find(name);
    return it == observed.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double fetched =
      counter("nvme.ssq.fetched_from_rsq") + counter("nvme.ssq.fetched_from_wsq");

  m["sim.events"] = static_cast<double>(timed.events);
  m["sim.events_per_s"] = ratio(static_cast<double>(timed.events), wall_s);
  m["nvme.commands"] = counter("nvme.dispatched_reads") + counter("nvme.dispatched_writes");
  m["nvme.ssq.wsq_fetch_frac"] = ratio(counter("nvme.ssq.fetched_from_wsq"), fetched);
  m["nvme.ssq.borrowed_frac"] = ratio(counter("nvme.ssq.borrowed_fetches"), fetched);
  m["ssd.cache_absorbed_frac"] =
      ratio(counter("ssd.cache_absorbed_writes"), counter("nvme.dispatched_writes"));
  m["core.run_ms_p50"] = quantile(timed.cell_seconds, 0.5) * 1e3;
  m["core.standalone_cell_ms_p50"] = quantile(timed.cell_seconds, 0.5) * 1e3;
  m["core.standalone_cell_ms_p95"] = quantile(timed.cell_seconds, 0.95) * 1e3;
  m["runner.busy_frac"] = timed.busy_frac();
  out.notes.push_back(
      "tpm_train has no network; ssd.cmt_hit_ratio and ssd.chip_utilization are "
      "not exposed by run_standalone and read 0");
  return out;
}

}  // namespace perfbench

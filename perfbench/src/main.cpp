// perfbench: the repo benchmark driver.
//
//   perfbench --workload <vdi_src|pod_incast|pod_incast_lanes4|tpm_train>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--root <repo>] [--out <dir>] [--tiny]
//
// Prints one digest line per simulated instance, then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones (and write spans, obs counters and a summary under --out). Exit code
// 1 means the run could not be measured; a measured run with failed checks
// still exits 0 and says so in the JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "perfbench.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;
using src::obs::Json;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Host costs. Simulated outcomes are per-layer numbers (unit "sim_...").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.cross_shard_frac", "ratio"},
    {"sim.lane_speedup", "ratio"},
    {"net.packets_forwarded", "count"},
    {"net.events_per_packet", "ratio"},
    {"net.max_queue_kb", "KB"},
    {"net.ecn_marks", "count"},
    {"net.cnps", "count"},
    {"net.pfc_pauses", "count"},
    {"fabric.requests_issued", "count"},
    {"fabric.completed_frac", "ratio"},
    {"fabric.read_latency_us_p50", "sim_us"},
    {"fabric.read_latency_us_p99", "sim_us"},
    {"fabric.retries", "count"},
    {"nvme.commands", "count"},
    {"nvme.ssq.wsq_fetch_frac", "ratio"},
    {"nvme.ssq.borrowed_frac", "ratio"},
    {"ssd.cmt_hit_ratio", "ratio"},
    {"ssd.chip_utilization", "ratio"},
    {"ssd.cache_absorbed_frac", "ratio"},
    {"core.sim_aggregate_gbps", "sim_Gbps"},
    {"core.run_ms_p50", "ms"},
    {"core.src.adjustments", "count"},
    {"core.src.weight_change_frac", "ratio"},
    {"core.standalone_cell_ms_p50", "ms"},
    {"core.standalone_cell_ms_p95", "ms"},
    {"ml.fit_s", "s"},
    {"ml.predict_us_per_call", "us"},
    {"ml.r2_read", "R2"},
    {"ml.r2_write", "R2"},
    {"workload.records", "count"},
    {"workload.gen_s", "s"},
    {"scenario.parse_ms", "ms"},
    {"scenario.build_ms", "ms"},
    {"runner.cells", "count"},
    {"runner.busy_frac", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.trace_dropped", "count"},
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <vdi_src|pod_incast|pod_incast_lanes4|"
               "tpm_train> --seed <n> --seconds <s> --trace <0|1> [--root <dir>] "
               "[--out <dir>] [--tiny]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(std::string(flag) + ": missing value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace: expected 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--root") {
        args.root = value;
      } else if (flag == "--out") {
        args.out_dir = value;
      } else {
        usage_error("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage_error(std::string(flag) + ": bad value '" + value + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(args.seconds >= 0.0)) usage_error("--seconds must be >= 0");
  if (args.trace && args.out_dir.empty()) usage_error("--trace 1 needs --out");
  return args;
}

Outcome run_workload(const Args& args, perfbench::SpanLog& spans) {
  if (args.workload == "vdi_src") return perfbench::run_vdi_src(args, spans);
  if (args.workload == "pod_incast") return perfbench::run_pod_incast(args, spans, 1);
  if (args.workload == "pod_incast_lanes4") return perfbench::run_pod_incast(args, spans, 4);
  if (args.workload == "tpm_train") return perfbench::run_tpm_train(args, spans);
  usage_error("unknown workload '" + args.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.trace) std::filesystem::create_directories(args.out_dir);
  perfbench::SpanLog spans(args.trace);

  Outcome outcome;
  try {
    outcome = run_workload(args, spans);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), err.what());
    return 1;
  }
  outcome.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();

  // Every metric of the run's kind is printed; a per-layer metric the
  // workload did not set belongs to a layer it does not run and reads 0.
  bool correct = outcome.failed == 0 && outcome.extra_checks_ok;
  Json metrics{Json::Object{}};
  const auto emit = [&](const MetricDef& def, bool required) {
    const auto it = outcome.metrics.find(def.name);
    double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value) || (required && value <= 0.0)) {
      std::fprintf(stderr, "perfbench: metric %s is %g\n", def.name, value);
      correct = false;
      if (!std::isfinite(value)) value = 0.0;
    }
    Json entry{Json::Object{}};
    entry.set("value", Json{value});
    entry.set("unit", Json{def.unit});
    metrics.set(def.name, std::move(entry));
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) emit(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }

  Json result{Json::Object{}};
  result.set("correct", Json{correct});
  result.set("attempted", Json{outcome.attempted});
  result.set("failed", Json{outcome.failed});
  result.set("metrics", std::move(metrics));

  if (args.trace) {
    spans.write_chrome_trace(args.out_dir + "/spans.json");
    Json notes{Json::Array{}};
    for (const std::string& note : outcome.notes) notes.push_back(Json{note});
    Json summary = result;
    summary.set("workload", Json{args.workload});
    summary.set("seed", Json{args.seed});
    summary.set("notes", std::move(notes));
    std::ofstream(args.out_dir + "/summary.json") << summary.dump(2) << "\n";
    for (const std::string& note : outcome.notes) std::printf("note: %s\n", note.c_str());
  }
  std::printf("%s\n", result.dump(-1).c_str());
  return 0;
}

// srcctl — command-line front end for the SRC simulator library.
//
// Subcommands live in the kCommands table below; `srcctl help` (or any
// unknown command) prints the generated listing, and every command accepts
// `--help` for its own flags.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "chaos/shrink.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "core/standalone.hpp"
#include "fault/fault_injector.hpp"
#include "obs/obs.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"
#include "verify/invariants.hpp"
#include "workload/trace_io.hpp"

using namespace src;

namespace {

/// Tiny --flag=value / --flag value parser. Non-flag tokens are collected
/// as positionals; which flags a command reads and whether it accepts
/// positionals are declared in its kCommands entry (main rejects the rest
/// up front).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (token == "-o") {
        token = "--out";  // conventional short form for output files
      }
      if (token.rfind("--", 0) != 0) {
        positionals_.push_back(token);
        continue;
      }
      token = token.substr(2);
      const auto eq = token.find('=');
      std::string key = token.substr(0, eq);
      valueless_.erase(key);  // the last occurrence of a flag wins
      if (eq != std::string::npos) {
        values_[key] = token.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
        valueless_.insert(std::move(key));
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Numeric flags must consume their whole token (`--iat 15x` is an
  /// error, not 15); a malformed value exits 2 with a located message.
  double get_double(const std::string& key, double fallback) const {
    double value = fallback;
    if (!parse_number(key, value) || !std::isfinite(value)) {
      reject(key, "a number");
    }
    return value;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    std::uint64_t value = fallback;
    if (!parse_number(key, value)) reject(key, "a non-negative integer");
    return value;
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  const std::map<std::string, std::string>& flags() const { return values_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  /// Leaves `value` untouched when the flag is absent.
  template <typename T>
  bool parse_number(const std::string& key, T& value) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return true;
    if (valueless_.count(key) > 0) return false;
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    return ec == std::errc() && ptr == end;
  }
  [[noreturn]] void reject(const std::string& key, const char* expected) const {
    const std::string got = valueless_.count(key) > 0
                                ? std::string("no value")
                                : "'" + values_.at(key) + "'";
    std::fprintf(stderr, "srcctl: --%s: expected %s, got %s\n", key.c_str(),
                 expected, got.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> valueless_;
  std::vector<std::string> positionals_;
};

int cmd_sweep(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl sweep [--ssd SSD-A] [--iat 15] [--size-kb 32] "
              "[--count 6000] [--seed 7]");
    return 0;
  }
  const auto config = ssd::config_by_name(args.get("ssd", "SSD-A"));
  const double iat = args.get_double("iat", 15.0);
  const double size_kb = args.get_double("size-kb", 32.0);
  const auto trace = workload::generate_micro(
      workload::symmetric_micro(iat, size_kb * 1024,
                                args.get_u64("count", 6000)),
      args.get_u64("seed", 7));

  common::TextTable table({"w", "read Gbps", "write Gbps", "aggregate"});
  for (const std::uint32_t w : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
    core::StandaloneOptions options;
    options.weight_ratio = w;
    options.horizon = core::arrival_horizon(trace);
    const auto result = core::run_standalone(config, trace, options);
    table.add_row({std::to_string(w) + ":1",
                   common::fmt(result.read_rate.as_gbps()),
                   common::fmt(result.write_rate.as_gbps()),
                   common::fmt(result.aggregate_rate().as_gbps())});
  }
  table.print(std::cout);
  return 0;
}

/// Write `text` to `path`, exiting with a message on failure.
void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  out << text << '\n';
}

int cmd_experiment(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl experiment [--preset vdi|light|moderate|heavy|incast]\n"
              "                  [--targets 2] [--initiators 1] [--seed 99]\n"
              "                  [--model file.tpm] [--metrics-out metrics.json]");
    return 0;
  }
  const std::string preset = args.get("preset", "vdi");
  core::Tpm tpm;
  if (args.has("model")) {
    tpm = core::Tpm::load_file(args.get("model", ""));
    std::printf("loaded TPM from %s\n", args.get("model", "").c_str());
  } else {
    std::printf("training TPM for SSD-A (use --model file.tpm to skip)...\n");
    tpm = core::train_default_tpm(ssd::ssd_a());
  }

  auto build = [&](bool use_src) -> core::ExperimentConfig {
    const std::uint64_t seed = args.get_u64("seed", 99);
    const core::Tpm* model = use_src ? &tpm : nullptr;
    if (preset == "vdi") return core::vdi_experiment(use_src, model, seed);
    if (preset == "light")
      return core::intensity_experiment(core::Intensity::kLight, use_src, model, seed);
    if (preset == "moderate")
      return core::intensity_experiment(core::Intensity::kModerate, use_src, model, seed);
    if (preset == "heavy")
      return core::intensity_experiment(core::Intensity::kHeavy, use_src, model, seed);
    if (preset == "incast")
      return core::incast_experiment(args.get_u64("targets", 2),
                                     args.get_u64("initiators", 1), use_src,
                                     model, seed);
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    std::exit(2);
  };

  // Metrics observatories (tracing off: the counters are what we export).
  obs::ObsConfig obs_config;
  obs_config.tracing = false;
  obs::Observatory only_obs(obs_config);
  obs::Observatory src_obs(obs_config);

  auto only_config = build(false);
  auto src_config = build(true);
  if (args.has("metrics-out")) {
    only_config.observatory = &only_obs;
    src_config.observatory = &src_obs;
  }
  const auto only = core::run_experiment(only_config);
  const auto with_src = core::run_experiment(src_config);

  if (args.has("metrics-out")) {
    obs::Json combined = obs::Json::Object{};
    combined.set("dcqcn_only", obs::Json::parse(only_obs.metrics_json()));
    combined.set("dcqcn_src", obs::Json::parse(src_obs.metrics_json()));
    const std::string path = args.get("metrics-out", "");
    write_text_file(path, combined.dump(2));
    std::printf("metrics written to %s\n", path.c_str());
  }

  common::TextTable table({"Mode", "read", "write", "aggregate", "signals"});
  auto row = [&](const char* name, const core::ExperimentResult& r) {
    table.add_row({name, common::fmt(r.read_rate.as_gbps()),
                   common::fmt(r.write_rate.as_gbps()),
                   common::fmt(r.aggregate_rate().as_gbps()),
                   std::to_string(r.pause_timeline.total())});
  };
  row("DCQCN-only", only);
  row("DCQCN-SRC", with_src);
  table.print(std::cout);
  const double gain = (with_src.aggregate_rate().as_bytes_per_second() /
                           only.aggregate_rate().as_bytes_per_second() -
                       1.0) * 100.0;
  std::printf("aggregate improvement: %+.0f%% (rates in Gbps)\n", gain);

  // Robustness counters: all zero on a healthy run, so only print when the
  // fault/retry machinery actually did something.
  auto robustness = [](const char* name, const core::ExperimentResult& r) {
    const std::uint64_t activity = r.retries + r.timeouts + r.error_completions +
                                   r.reads_failed + r.writes_failed +
                                   r.errors_returned + r.rerouted_requests +
                                   r.signals_suppressed +
                                   r.controller_stats.invalid_demand_events +
                                   r.controller_stats.rejected_predictions +
                                   r.controller_stats.watchdog_decays;
    if (activity == 0) return;
    std::printf("%s robustness: %llu retries, %llu timeouts, %llu error "
                "completions, %llu failed, %llu rerouted, %llu signals lost, "
                "%llu bad demands, %llu bad predictions, %llu watchdog decays\n",
                name, static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.error_completions),
                static_cast<unsigned long long>(r.reads_failed + r.writes_failed),
                static_cast<unsigned long long>(r.rerouted_requests),
                static_cast<unsigned long long>(r.signals_suppressed),
                static_cast<unsigned long long>(r.controller_stats.invalid_demand_events),
                static_cast<unsigned long long>(r.controller_stats.rejected_predictions),
                static_cast<unsigned long long>(r.controller_stats.watchdog_decays));
  };
  robustness("DCQCN-only", only);
  robustness("DCQCN-SRC", with_src);
  return 0;
}

/// Run-report JSON ("src-run-v1"): scenario name, headline metrics, and the
/// full observatory snapshot. `srcctl metricscheck` validates this shape.
obs::Json run_report(const std::string& scenario_name,
                     const core::ExperimentResult& result,
                     const obs::Observatory& observatory) {
  obs::Json report{obs::Json::Object{}};
  report.set("schema", obs::Json{"src-run-v1"});
  report.set("scenario", obs::Json{scenario_name});
  report.set("read_gbps", obs::Json{result.read_rate.as_gbps()});
  report.set("write_gbps", obs::Json{result.write_rate.as_gbps()});
  report.set("aggregate_gbps", obs::Json{result.aggregate_rate().as_gbps()});
  report.set("total_pauses", obs::Json{result.total_pauses});
  report.set("reads_completed", obs::Json{result.reads_completed});
  report.set("writes_completed", obs::Json{result.writes_completed});
  report.set("final_weight_ratio",
             obs::Json{static_cast<std::uint64_t>(result.final_weight_ratio())});
  report.set("completed", obs::Json{result.completed});
  report.set("read_jain_index", obs::Json{result.read_fairness_index()});
  obs::Json per_initiator{obs::Json::Array{}};
  for (const common::Rate rate : result.per_initiator_read_rate) {
    per_initiator.push_back(obs::Json{rate.as_gbps()});
  }
  report.set("per_initiator_read_gbps", std::move(per_initiator));
  obs::Json shares{obs::Json::Array{}};
  for (const double share : result.read_shares()) {
    shares.push_back(obs::Json{share});
  }
  report.set("read_shares", std::move(shares));
  report.set("metrics", observatory.metrics().snapshot());
  return report;
}

/// Pod-kind arm of `srcctl run`: pod manifests execute on the sharded lane
/// engine via scenario::run_pod and report pod metrics (striped read/write
/// chunks, cross-shard messages) instead of the star experiment's weight
/// trajectory. --metrics-out writes an "src-pod-run-v1" report.
int run_pod_scenario(const scenario::ScenarioSpec& spec, const Args& args) {
  obs::ObsConfig obs_config;
  obs_config.tracing = false;
  obs::Observatory observatory(obs_config);
  scenario::BuildOptions options;
  options.observatory = &observatory;

  core::PodExperimentResult result;
  try {
    result = scenario::run_pod(spec, options);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }

  const scenario::PodSpec& pod = spec.topology.pod;
  std::printf("%s: pod grammar %zux%zux%zu (oversub %.1f, partition %s), "
              "%zu lane(s)\n",
              spec.name.c_str(), pod.pods, pod.racks_per_pod,
              pod.hosts_per_rack, pod.oversubscription, pod.partition.c_str(),
              spec.lanes == 0 ? std::size_t{1} : spec.lanes);
  std::printf("  read %.2f Gbps, %llu read + %llu write chunks, %llu pauses, "
              "Jain index %.4f%s\n",
              result.read_rate().as_gbps(),
              static_cast<unsigned long long>(result.reads_completed),
              static_cast<unsigned long long>(result.writes_completed),
              static_cast<unsigned long long>(result.total_pauses),
              result.read_fairness_index(),
              result.completed ? "" : " (hit max_time cap)");
  std::printf("  %llu events executed, %llu cross-shard messages, "
              "end %.1f ms\n",
              static_cast<unsigned long long>(result.events_executed),
              static_cast<unsigned long long>(result.cross_shard_messages),
              common::to_milliseconds(result.end_time));

  if (args.has("metrics-out")) {
    obs::Json report{obs::Json::Object{}};
    report.set("schema", obs::Json{"src-pod-run-v1"});
    report.set("scenario", obs::Json{spec.name});
    report.set("read_gbps", obs::Json{result.read_rate().as_gbps()});
    report.set("read_jain_index", obs::Json{result.read_fairness_index()});
    report.set("reads_completed", obs::Json{result.reads_completed});
    report.set("writes_completed", obs::Json{result.writes_completed});
    report.set("total_pauses", obs::Json{result.total_pauses});
    report.set("events_executed", obs::Json{result.events_executed});
    report.set("cross_shard_messages", obs::Json{result.cross_shard_messages});
    report.set("completed", obs::Json{result.completed});
    obs::Json per_initiator{obs::Json::Array{}};
    for (const std::uint64_t bytes : result.per_initiator_read_bytes) {
      per_initiator.push_back(obs::Json{bytes});
    }
    report.set("per_initiator_read_bytes", std::move(per_initiator));
    report.set("metrics", observatory.metrics().snapshot());
    const std::string path = args.get("metrics-out", "");
    write_text_file(path, report.dump(2));
    std::printf("metrics written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_run(const Args& args) {
  if (args.has("help") || args.positionals().empty()) {
    std::puts("srcctl run <scenario.json> [--model file.tpm]\n"
              "           [--metrics-out report.json] [--dump] [--lenient]\n"
              "           [--lanes N]\n"
              "\n"
              "Runs a src-scenario-v1 manifest end to end and prints the\n"
              "measured throughput. --model supplies a pre-fitted TPM\n"
              "(overriding the manifest's src.tpm source); --metrics-out\n"
              "writes a src-run-v1 report; --dump echoes the parsed manifest\n"
              "back as canonical JSON instead of running it. --lanes overrides\n"
              "the manifest's lane count (0 = classic single-kernel engine;\n"
              "N >= 1 = sharded lane engine with N worker threads — results\n"
              "are identical at every N). Pod-kind manifests always run on\n"
              "the lane engine and print a pod summary (--metrics-out then\n"
              "writes an src-pod-run-v1 report).\n"
              "\n"
              "Exit codes: 0 clean run, 1 runtime failure, 2 usage error,\n"
              "3 health failure — a controller guardrail tripped, requests\n"
              "exhausted their retries, or (with a `verify` block) a runtime\n"
              "invariant checker fired. --lenient downgrades 3 back to 0.");
    return args.has("help") ? 0 : 2;
  }
  if (args.positionals().size() != 1) {
    std::fprintf(stderr, "run: expected exactly one scenario file\n");
    return 2;
  }
  scenario::ScenarioSpec spec;
  try {
    spec = scenario::load_scenario_file(args.positionals().front());
  } catch (const std::runtime_error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  }
  if (args.has("lanes")) {
    spec.lanes = args.get_u64("lanes", spec.lanes);
  }
  if (args.has("dump")) {
    std::fputs(scenario::to_json_text(spec).c_str(), stdout);
    return 0;
  }
  if (spec.topology.kind == "pod") return run_pod_scenario(spec, args);

  core::Tpm tpm;
  scenario::BuildOptions options;
  if (args.has("model")) {
    tpm = core::Tpm::load_file(args.get("model", ""));
    options.tpm = &tpm;
    std::printf("loaded TPM from %s\n", args.get("model", "").c_str());
  } else if (spec.src.enabled && spec.src.tpm.source == "train-default") {
    std::printf("training TPM for %s (use --model file.tpm to skip)...\n",
                spec.ssd.name.c_str());
  }
  obs::ObsConfig obs_config;
  obs_config.tracing = false;
  obs::Observatory observatory(obs_config);
  options.observatory = &observatory;

  core::ExperimentResult result;
  std::shared_ptr<verify::Report> verify_report;
  try {
    const scenario::BuiltScenario built = scenario::build(spec, options);
    verify_report = built.verify_report;
    result = core::run_experiment(built.config);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }

  std::printf("%s: read %.2f Gbps, write %.2f Gbps, aggregate %.2f Gbps, "
              "%llu pauses, final w=%u%s\n",
              spec.name.c_str(), result.read_rate.as_gbps(),
              result.write_rate.as_gbps(), result.aggregate_rate().as_gbps(),
              static_cast<unsigned long long>(result.total_pauses),
              result.final_weight_ratio(),
              result.completed ? "" : " (hit max_time cap)");
  // Per-flow fairness summary — meaningful once several initiators share
  // the fabric (coexistence scenarios), harmless noise-free for one.
  if (result.per_initiator_read_rate.size() > 1) {
    const std::vector<double> shares = result.read_shares();
    std::printf("  read shares:");
    for (std::size_t i = 0; i < shares.size(); ++i) {
      std::printf(" i%zu=%.3f (%.2f Gbps)", i, shares[i],
                  result.per_initiator_read_rate[i].as_gbps());
    }
    std::printf("  Jain index %.4f\n", result.read_fairness_index());
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "");
    write_text_file(path, run_report(spec.name, result, observatory).dump(2));
    std::printf("metrics written to %s\n", path.c_str());
  }

  // Health gate (exit 3): controller guardrails, retry exhaustion, and any
  // invariant-checker findings are hard failures unless --lenient.
  const std::uint64_t guardrails = result.controller_stats.invalid_demand_events +
                                   result.controller_stats.rejected_predictions +
                                   result.controller_stats.watchdog_decays;
  const std::uint64_t exhausted = result.reads_failed + result.writes_failed;
  std::size_t violations = 0;
  if (verify_report != nullptr) {
    violations = verify_report->violations.size();
    for (const verify::Violation& v : verify_report->violations) {
      std::fprintf(stderr, "verify: [%s] t=%lluns %s\n", v.checker.c_str(),
                   static_cast<unsigned long long>(v.when), v.detail.c_str());
    }
    if (verify_report->truncated) {
      std::fprintf(stderr, "verify: violation list truncated at cap\n");
    }
  }
  if (guardrails == 0 && exhausted == 0 && violations == 0) return 0;
  std::fprintf(stderr,
               "%s: unhealthy run: %llu guardrail trips, %llu requests "
               "exhausted retries, %zu invariant violations%s\n",
               spec.name.c_str(), static_cast<unsigned long long>(guardrails),
               static_cast<unsigned long long>(exhausted), violations,
               args.has("lenient") ? " (--lenient: ignoring)" : "");
  return args.has("lenient") ? 0 : 3;
}

int cmd_scenarios(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl scenarios                 list built-in presets\n"
              "srcctl scenarios <name>          dump one preset as JSON\n"
              "srcctl scenarios --all --out-dir DIR\n"
              "                                 write every preset to DIR/<name>.json");
    return 0;
  }
  if (!args.positionals().empty()) {
    if (args.positionals().size() != 1) {
      std::fprintf(stderr, "scenarios: expected at most one preset name\n");
      return 2;
    }
    scenario::ScenarioSpec spec;
    try {
      spec = scenario::preset_spec(args.positionals().front());
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "%s\n", err.what());
      return 2;
    }
    std::fputs(scenario::to_json_text(spec).c_str(), stdout);
    return 0;
  }
  if (args.has("all")) {
    const std::string dir = args.get("out-dir", "");
    if (dir.empty()) {
      std::fprintf(stderr, "scenarios --all needs --out-dir DIR\n");
      return 2;
    }
    for (const std::string& name : scenario::preset_registry().names()) {
      const std::string path = dir + "/" + name + ".json";
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return 1;
      }
      out << scenario::to_json_text(scenario::preset_spec(name));
      std::printf("wrote %s\n", path.c_str());
    }
    return 0;
  }
  common::TextTable table({"name", "description"});
  for (const std::string& name : scenario::preset_registry().names()) {
    table.add_row({name, scenario::preset_registry().at(name).description});
  }
  table.print(std::cout);
  std::puts("\ndump one with `srcctl scenarios <name>`, run it with "
            "`srcctl run <file>`");
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl trace --preset fig7|fig9|fig10-light|fig10-moderate|\n"
              "                      fig10-heavy|table4\n"
              "             [-o|--out trace.json] [--metrics-out metrics.json]\n"
              "             [--model file.tpm] [--capacity 65536]\n"
              "\n"
              "Runs the preset with event tracing enabled and writes a Chrome\n"
              "trace_event JSON (load it at https://ui.perfetto.dev).");
    return 0;
  }
  const std::string preset = args.get("preset", "fig9");
  const std::string out = args.get("out", "trace.json");

  core::Tpm tpm;
  const core::Tpm* model = nullptr;
  if (preset != "fig7") {  // every other preset runs SRC and needs a TPM
    if (args.has("model")) {
      tpm = core::Tpm::load_file(args.get("model", ""));
      std::printf("loaded TPM from %s\n", args.get("model", "").c_str());
    } else {
      std::printf("training TPM for SSD-A (use --model file.tpm to skip)...\n");
      tpm = core::train_default_tpm(ssd::ssd_a());
    }
    model = &tpm;
  }

  core::ExperimentConfig config;
  try {
    config = core::preset_by_name(preset, model);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  }

  obs::ObsConfig obs_config;
  obs_config.tracing = true;
  obs_config.trace_capacity = args.get_u64("capacity", obs_config.trace_capacity);
  obs::Observatory observatory(obs_config);
  config.observatory = &observatory;

  const auto result = core::run_experiment(config);

  write_text_file(out, observatory.trace_json());
  std::printf("%s: read %.2f Gbps, write %.2f Gbps, %llu pauses, final w=%u\n",
              preset.c_str(), result.read_rate.as_gbps(),
              result.write_rate.as_gbps(),
              static_cast<unsigned long long>(result.total_pauses),
              result.final_weight_ratio());
  std::printf("trace: %zu events kept (%llu recorded, %llu dropped) -> %s\n",
              observatory.tracer().size(),
              static_cast<unsigned long long>(observatory.tracer().recorded()),
              static_cast<unsigned long long>(observatory.tracer().dropped()),
              out.c_str());
  if (args.has("metrics-out")) {
    const std::string metrics_path = args.get("metrics-out", "");
    write_text_file(metrics_path, observatory.metrics_json());
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}

int cmd_faults(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl faults [--seed 42] [--requests 2000] [--devices 4]\n"
              "              [--drop-prob 0.3] [--drop-start-ms 50] [--drop-end-ms 100]\n"
              "              [--outage-device 1] [--outage-start-ms 80] [--outage-end-ms 140]\n"
              "              [--max-retries 10] [--no-retry]");
    return 0;
  }
  sim::Simulator sim;
  net::Network network(sim, net::NetConfig{});
  auto topo = net::make_star(network, 2, common::Rate::gbps(10.0),
                             common::kMicrosecond);
  fabric::FabricContext context;
  fabric::Initiator initiator(network, topo.hosts[0], context);
  fabric::TargetConfig target_config;
  target_config.device_count = args.get_u64("devices", 4);
  fabric::Target target(network, topo.hosts[1], context, target_config);

  if (!args.has("no-retry")) {
    fabric::RetryPolicy policy;
    policy.enabled = true;
    policy.base_timeout = 2 * common::kMillisecond;
    policy.max_timeout = 16 * common::kMillisecond;
    policy.max_retries = static_cast<std::uint32_t>(args.get_u64("max-retries", 10));
    initiator.set_retry_policy(policy);
  }

  fault::FaultPlan plan;
  plan.seed = args.get_u64("seed", 42);
  plan.packet_drops.push_back(
      {topo.hosts[0], 0,
       static_cast<common::SimTime>(args.get_double("drop-start-ms", 50.0) *
                                    common::kMillisecond),
       static_cast<common::SimTime>(args.get_double("drop-end-ms", 100.0) *
                                    common::kMillisecond),
       args.get_double("drop-prob", 0.3)});
  const std::size_t outage_device = args.get_u64("outage-device", 1);
  if (outage_device < target_config.device_count) {
    plan.outages.push_back(
        {0, outage_device,
         static_cast<common::SimTime>(args.get_double("outage-start-ms", 80.0) *
                                      common::kMillisecond),
         static_cast<common::SimTime>(args.get_double("outage-end-ms", 140.0) *
                                      common::kMillisecond)});
  }
  fault::FaultInjector injector(network, plan);
  injector.add_target(target);
  injector.arm();

  workload::Trace trace;
  const std::size_t requests = args.get_u64("requests", 2000);
  for (std::size_t i = 0; i < requests; ++i) {
    trace.push_back({common::microseconds(100.0 * static_cast<double>(i)),
                     i % 3 == 0 ? common::IoType::kWrite : common::IoType::kRead,
                     static_cast<std::uint64_t>(i) << 20, 32768});
  }
  initiator.run_trace(trace, [&](const workload::TraceRecord&, std::size_t) {
    return target.node_id();
  });
  sim.run_until(2 * common::kSecond);

  const auto& stats = initiator.stats();
  common::TextTable table({"metric", "value"});
  table.add_row({"requests issued",
                 std::to_string(stats.reads_issued + stats.writes_issued)});
  table.add_row({"completed",
                 std::to_string(stats.reads_completed + stats.writes_completed)});
  table.add_row({"failed explicitly", std::to_string(stats.requests_failed())});
  table.add_row({"timeouts", std::to_string(stats.timeouts)});
  table.add_row({"retries", std::to_string(stats.retries)});
  table.add_row({"error completions", std::to_string(stats.error_completions)});
  table.add_row({"stale messages", std::to_string(stats.stale_messages)});
  table.add_row({"packets dropped", std::to_string(injector.stats().packets_dropped)});
  table.add_row({"errors returned", std::to_string(target.stats().errors_returned)});
  table.add_row({"rerouted requests", std::to_string(target.stats().rerouted_requests)});
  table.add_row({"all terminated", initiator.all_complete() ? "yes" : "NO"});
  table.print(std::cout);
  return initiator.all_complete() ? 0 : 1;
}

int cmd_tpm(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl tpm [--ssd SSD-A] [--seed 11] [--save model.tpm]");
    return 0;
  }
  const auto config = ssd::config_by_name(args.get("ssd", "SSD-A"));
  std::printf("collecting training data on %s...\n", config.name.c_str());
  const auto data = core::collect_training_data(
      config, core::default_training_grid(6000, args.get_u64("seed", 11)));
  const auto [train, test] = data.split(0.6, 42);
  core::Tpm tpm;
  tpm.fit(train);
  const auto [read_r2, write_r2] = tpm.score(test);
  std::printf("%zu samples; held-out R^2: read %.3f, write %.3f\n",
              data.size(), read_r2, write_r2);

  common::TextTable table({"feature", "importance"});
  const auto importances = tpm.feature_importances();
  const auto names = workload::WorkloadFeatures::names();
  for (std::size_t i = 0; i < importances.size(); ++i) {
    table.add_row({i < names.size() ? names[i] : "weight_ratio_w",
                   common::fmt(importances[i], 3)});
  }
  table.print(std::cout);
  if (args.has("save")) {
    const std::string out = args.get("save", "");
    tpm.save_file(out);
    std::printf("model written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_trace_gen(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl trace-gen --out trace.csv [--preset micro|vdi|cbs]\n"
              "                 [--count 5000] [--iat 15] [--size-kb 32] [--seed 7]");
    return 0;
  }
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  const std::string preset = args.get("preset", "micro");
  const std::size_t count = args.get_u64("count", 5000);
  const std::uint64_t seed = args.get_u64("seed", 7);

  workload::Trace trace;
  if (preset == "micro") {
    trace = workload::generate_micro(
        workload::symmetric_micro(args.get_double("iat", 15.0),
                                  args.get_double("size-kb", 32.0) * 1024, count),
        seed);
  } else if (preset == "vdi") {
    trace = workload::generate_synthetic(workload::fujitsu_vdi_like(count), seed);
  } else if (preset == "cbs") {
    trace = workload::generate_synthetic(workload::tencent_cbs_like(count), seed);
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  workload::write_csv_trace_file(out, trace);
  std::printf("wrote %zu requests to %s\n", trace.size(), out.c_str());
  return 0;
}

int cmd_trace_stats(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl trace-stats --trace trace.csv");
    return 0;
  }
  const std::string path = args.get("trace", "");
  if (path.empty()) {
    std::fprintf(stderr, "--trace is required\n");
    return 2;
  }
  const auto trace = workload::read_csv_trace_file(path);
  const auto stats = workload::analyze(trace);
  common::TextTable table({"stream", "count", "mean IAT us", "IAT SCV",
                           "mean size KB", "size SCV", "flow Gbps"});
  auto row = [&](const char* name, const workload::StreamStats& s) {
    table.add_row({name, std::to_string(s.count), common::fmt(s.mean_iat_us, 1),
                   common::fmt(s.scv_iat), common::fmt(s.mean_size_bytes / 1024.0, 1),
                   common::fmt(s.scv_size),
                   common::fmt(s.flow_speed_bytes_per_sec * 8 / 1e9)});
  };
  row("read", stats.read);
  row("write", stats.write);
  table.print(std::cout);
  std::printf("duration %.1f ms, read ratio %.2f\n",
              common::to_milliseconds(stats.duration), stats.read_ratio);
  return 0;
}

int cmd_replay(const Args& args) {
  if (args.has("help")) {
    std::puts("srcctl replay --trace trace.csv [--ssd SSD-A] [--weight 1]");
    return 0;
  }
  const std::string path = args.get("trace", "");
  if (path.empty()) {
    std::fprintf(stderr, "--trace is required\n");
    return 2;
  }
  const auto trace = workload::read_csv_trace_file(path);
  core::StandaloneOptions options;
  options.weight_ratio = static_cast<std::uint32_t>(args.get_u64("weight", 1));
  options.horizon = core::arrival_horizon(trace);
  const auto result = core::run_standalone(
      ssd::config_by_name(args.get("ssd", "SSD-A")), trace, options);
  std::printf("%zu requests: read %.2f Gbps, write %.2f Gbps, "
              "read latency %.0f us, write latency %.0f us\n",
              trace.size(), result.read_rate.as_gbps(),
              result.write_rate.as_gbps(), result.mean_read_latency_us,
              result.mean_write_latency_us);
  return 0;
}

/// Validate one bench-harness JSON file (schema "src-bench-v1", written by
/// bench/harness.hpp). Returns an empty string when valid, else a message.
std::string check_bench_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot open file";
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  obs::Json doc;
  try {
    doc = obs::Json::parse(text);
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  if (!doc.is_object()) return "top level is not an object";
  const obs::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "src-bench-v1") {
    return "missing or unexpected \"schema\" (want \"src-bench-v1\")";
  }
  const obs::Json* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty()) {
    return "missing \"bench\" name";
  }
  const obs::Json* total = doc.find("total_wall_seconds");
  if (total == nullptr || !total->is_number() || total->as_number() < 0.0) {
    return "missing or negative \"total_wall_seconds\"";
  }
  const obs::Json* sections = doc.find("sections");
  if (sections == nullptr || !sections->is_array()) {
    return "missing \"sections\" array";
  }
  std::size_t index = 0;
  for (const obs::Json& section : sections->as_array()) {
    const std::string where = "sections[" + std::to_string(index++) + "]: ";
    if (!section.is_object()) return where + "not an object";
    const obs::Json* name = section.find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      return where + "missing \"name\"";
    }
    for (const char* key : {"wall_seconds", "iterations", "events",
                            "events_per_sec", "items", "items_per_sec"}) {
      const obs::Json* value = section.find(key);
      if (value == nullptr || !value->is_number() || value->as_number() < 0.0) {
        return where + "missing or negative \"" + key + "\"";
      }
    }
  }
  return "";
}

/// Shared driver for the *check commands: validate each positional file
/// with `check`, print per-file ok/FAILED lines, exit 1 on any failure.
int run_file_checks(const Args& args, const char* what,
                    const std::function<std::string(const std::string&)>& check) {
  int failures = 0;
  for (const std::string& path : args.positionals()) {
    const std::string error = check(path);
    if (error.empty()) {
      std::printf("ok      %s\n", path.c_str());
    } else {
      std::printf("FAILED  %s: %s\n", path.c_str(), error.c_str());
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%s: %d of %zu file(s) invalid\n", what, failures,
                 args.positionals().size());
  }
  return failures == 0 ? 0 : 1;
}

/// Parse a JSON file; empty error string on success.
std::string load_json_file(const std::string& path, obs::Json& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot open file";
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    out = obs::Json::parse(text);
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  return "";
}

/// Compare a schema-valid bench file against a schema-valid baseline:
/// section-name sets must match; per section, deterministic work measures
/// are gated — `items` exactly, `events` within `tolerance` (relative).
/// Wall-clock fields are never compared (machines differ); the committed
/// baseline pins the *workload*, not the speed.
std::string diff_bench_json(const obs::Json& baseline, const obs::Json& doc,
                            double tolerance) {
  std::map<std::string, const obs::Json*> want;
  for (const obs::Json& section : baseline.find("sections")->as_array()) {
    want.emplace(section.find("name")->as_string(), &section);
  }
  std::size_t seen = 0;
  for (const obs::Json& section : doc.find("sections")->as_array()) {
    const std::string name = section.find("name")->as_string();
    const auto it = want.find(name);
    if (it == want.end()) {
      return "section \"" + name + "\" not in baseline";
    }
    ++seen;
    const double base_items = it->second->find("items")->as_number();
    const double items = section.find("items")->as_number();
    if (items != base_items) {
      return "section \"" + name + "\": items " + obs::Json{items}.dump() +
             " != baseline " + obs::Json{base_items}.dump();
    }
    const double base_events = it->second->find("events")->as_number();
    const double events = section.find("events")->as_number();
    const double limit = tolerance * std::max(base_events, 1.0);
    if (std::abs(events - base_events) > limit) {
      char bound[32];
      std::snprintf(bound, sizeof(bound), "%g", tolerance);
      return "section \"" + name + "\": events " + obs::Json{events}.dump() +
             " deviates from baseline " + obs::Json{base_events}.dump() +
             " by more than " + bound + " relative";
    }
  }
  if (seen != want.size()) {
    return "baseline has " + std::to_string(want.size()) +
           " sections, file has " + std::to_string(seen);
  }
  return "";
}

int cmd_benchcheck(const Args& args) {
  if (args.has("help") || args.positionals().empty()) {
    std::puts("srcctl benchcheck BENCH_a.json [BENCH_b.json ...]\n"
              "                  [--baseline BENCH_base.json] [--tolerance F]\n"
              "\n"
              "Validates bench-harness output files against the src-bench-v1\n"
              "schema; exits non-zero if any file is missing or malformed.\n"
              "With --baseline, additionally gates each file against the\n"
              "committed baseline: identical section names, exact `items`,\n"
              "and `events` within --tolerance (relative, default 0.1).\n"
              "Wall-clock timings are never compared.");
    return args.has("help") ? 0 : 2;
  }
  if (!args.has("baseline")) {
    return run_file_checks(args, "benchcheck", check_bench_json);
  }
  const std::string baseline_path = args.get("baseline", "");
  std::string error = check_bench_json(baseline_path);
  obs::Json baseline;
  if (error.empty()) error = load_json_file(baseline_path, baseline);
  if (!error.empty()) {
    std::fprintf(stderr, "benchcheck: baseline %s: %s\n",
                 baseline_path.c_str(), error.c_str());
    return 2;
  }
  const double tolerance = args.get_double("tolerance", 0.1);
  if (tolerance < 0.0) {
    std::fprintf(stderr, "benchcheck: --tolerance must be >= 0\n");
    return 2;
  }
  return run_file_checks(
      args, "benchcheck", [&baseline, tolerance](const std::string& path) {
        std::string err = check_bench_json(path);
        if (!err.empty()) return err;
        obs::Json doc;
        err = load_json_file(path, doc);
        if (!err.empty()) return err;
        return diff_bench_json(baseline, doc, tolerance);
      });
}

/// Perf trajectory diff between two src-bench-v1 files: per section,
/// compares *throughput* — events/sec when the old section dispatched
/// simulator events, items/sec otherwise — and fails on regressions beyond
/// the tolerance. The complement of `benchcheck --baseline` (which gates
/// the deterministic workload and never looks at speed): benchdiff is the
/// speed gate, run on measurements from the same machine class.
int cmd_benchdiff(const Args& args) {
  if (args.has("help") || args.positionals().size() != 2) {
    std::puts(
        "srcctl benchdiff OLD.json NEW.json [--tolerance F]\n"
        "\n"
        "Compares two src-bench-v1 files section by section on throughput\n"
        "(events/sec for event-based sections, items/sec otherwise) and\n"
        "prints a per-section delta table. Exits 1 when any section\n"
        "regresses by more than --tolerance (relative, default 0.15), or\n"
        "when the section sets differ. Positive deltas are improvements.");
    return args.has("help") ? 0 : 2;
  }
  const std::string old_path = args.positionals()[0];
  const std::string new_path = args.positionals()[1];
  const double tolerance = args.get_double("tolerance", 0.15);
  if (tolerance < 0.0) {
    std::fprintf(stderr, "benchdiff: --tolerance must be >= 0\n");
    return 2;
  }

  obs::Json old_doc, new_doc;
  for (const auto& [path, doc] : {std::pair{&old_path, &old_doc},
                                  std::pair{&new_path, &new_doc}}) {
    std::string error = check_bench_json(*path);
    if (error.empty()) error = load_json_file(*path, *doc);
    if (!error.empty()) {
      std::fprintf(stderr, "benchdiff: %s: %s\n", path->c_str(), error.c_str());
      return 2;
    }
  }

  std::map<std::string, const obs::Json*> old_sections;
  for (const obs::Json& section : old_doc.find("sections")->as_array()) {
    old_sections.emplace(section.find("name")->as_string(), &section);
  }

  std::printf("benchdiff %s -> %s (tolerance %.0f%%)\n", old_path.c_str(),
              new_path.c_str(), tolerance * 100.0);
  std::printf("  %-40s %6s %14s %14s %9s\n", "section", "metric", "old/s",
              "new/s", "delta");
  int regressions = 0;
  std::size_t seen = 0;
  for (const obs::Json& section : new_doc.find("sections")->as_array()) {
    const std::string name = section.find("name")->as_string();
    const auto it = old_sections.find(name);
    if (it == old_sections.end()) {
      std::printf("  %-40s new section (not in %s)\n", name.c_str(),
                  old_path.c_str());
      ++regressions;
      continue;
    }
    ++seen;
    // Gate on the section's primary rate: events/sec for simulator-driven
    // sections, items/sec for pure-compute ones (e.g. model inference).
    const bool event_based = it->second->find("events")->as_number() > 0.0;
    const char* key = event_based ? "events_per_sec" : "items_per_sec";
    const double old_rate = it->second->find(key)->as_number();
    const double new_rate = section.find(key)->as_number();
    const double delta =
        old_rate > 0.0 ? (new_rate - old_rate) / old_rate
                       : (new_rate > 0.0 ? 1.0 : 0.0);
    const bool regressed = delta < -tolerance;
    if (regressed) ++regressions;
    std::printf("  %-40s %6s %14.0f %14.0f %+8.1f%%%s\n", name.c_str(),
                event_based ? "events" : "items", old_rate, new_rate,
                delta * 100.0, regressed ? "  REGRESSED" : "");
  }
  if (seen != old_sections.size()) {
    std::printf("  %zu section(s) from %s missing in %s\n",
                old_sections.size() - seen, old_path.c_str(), new_path.c_str());
    ++regressions;
  }
  if (regressions > 0) {
    std::fprintf(stderr, "benchdiff: %d section(s) regressed beyond %.0f%%\n",
                 regressions, tolerance * 100.0);
    return 1;
  }
  std::printf("  ok: no section regressed beyond %.0f%%\n", tolerance * 100.0);
  return 0;
}

/// Validate one `srcctl run --metrics-out` report — "src-run-v1" for star
/// scenarios, "src-pod-run-v1" for pod-grammar runs on the lane engine.
/// Returns an empty string when valid, else a message.
std::string check_run_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot open file";
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  obs::Json doc;
  try {
    doc = obs::Json::parse(text);
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  if (!doc.is_object()) return "top level is not an object";
  const obs::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      (schema->as_string() != "src-run-v1" &&
       schema->as_string() != "src-pod-run-v1")) {
    return "missing or unexpected \"schema\" (want \"src-run-v1\" or "
           "\"src-pod-run-v1\")";
  }
  const bool pod_report = schema->as_string() == "src-pod-run-v1";
  const obs::Json* name = doc.find("scenario");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return "missing \"scenario\" name";
  }
  const std::vector<const char*> numeric_keys =
      pod_report
          ? std::vector<const char*>{"read_gbps", "total_pauses",
                                     "reads_completed", "writes_completed",
                                     "events_executed", "cross_shard_messages"}
          : std::vector<const char*>{"read_gbps", "write_gbps",
                                     "aggregate_gbps", "total_pauses",
                                     "reads_completed", "writes_completed",
                                     "final_weight_ratio"};
  for (const char* key : numeric_keys) {
    const obs::Json* value = doc.find(key);
    if (value == nullptr || !value->is_number() || value->as_number() < 0.0) {
      return std::string("missing or negative \"") + key + "\"";
    }
  }
  const obs::Json* completed = doc.find("completed");
  if (completed == nullptr || completed->type() != obs::Json::Type::kBool) {
    return "missing boolean \"completed\"";
  }
  const obs::Json* jain = doc.find("read_jain_index");
  if (jain == nullptr || !jain->is_number() || jain->as_number() < 0.0 ||
      jain->as_number() > 1.0) {
    return "missing \"read_jain_index\" or outside [0, 1]";
  }
  const std::vector<const char*> array_keys =
      pod_report
          ? std::vector<const char*>{"per_initiator_read_bytes"}
          : std::vector<const char*>{"per_initiator_read_gbps", "read_shares"};
  for (const char* key : array_keys) {
    const obs::Json* list = doc.find(key);
    if (list == nullptr || !list->is_array()) {
      return std::string("missing \"") + key + "\" array";
    }
    for (const obs::Json& value : list->as_array()) {
      if (!value.is_number() || value.as_number() < 0.0) {
        return std::string(key) + ": not all entries are non-negative numbers";
      }
    }
  }
  const obs::Json* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return "missing \"metrics\" object";
  }
  const obs::Json* counters = metrics->find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return "metrics: missing \"counters\" object";
  }
  for (const auto& [counter, value] : counters->as_object()) {
    if (!value.is_number() || value.as_number() < 0.0) {
      return "metrics.counters." + counter + ": not a non-negative number";
    }
  }
  return "";
}

int cmd_metricscheck(const Args& args) {
  if (args.has("help") || args.positionals().empty()) {
    std::puts("srcctl metricscheck report.json [more.json ...]\n"
              "\n"
              "Validates `srcctl run --metrics-out` reports against the\n"
              "src-run-v1 schema (src-pod-run-v1 for pod-grammar runs);\n"
              "exits non-zero if any file is malformed.");
    return args.has("help") ? 0 : 2;
  }
  return run_file_checks(args, "metricscheck", check_run_json);
}

/// Write a scenario manifest (to_json_text already ends with a newline).
void write_manifest(const std::string& path,
                    const scenario::ScenarioSpec& spec) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  out << scenario::to_json_text(spec);
}

/// Resolve `--base` for chaos commands: a preset name, or (when it looks
/// like a path) a manifest file. Defaults to the stock chaos base.
bool load_chaos_base(const Args& args, scenario::ScenarioSpec& spec) {
  const std::string base = args.get("base", "");
  if (base.empty()) {
    spec = chaos::default_base_spec();
    return true;
  }
  try {
    if (base.find('.') != std::string::npos ||
        base.find('/') != std::string::npos) {
      spec = scenario::load_scenario_file(base);
    } else {
      spec = scenario::preset_spec(base);
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return false;
  }
  return true;
}

/// Prepare the model every chaos run shares: --model loads a file, else an
/// SRC-enabled spec trains once via its tpm source. `tpm` may stay null
/// (DCQCN-only base). Returns false on a load failure.
bool chaos_tpm(const Args& args, const scenario::ScenarioSpec& spec,
               core::Tpm& loaded, std::shared_ptr<const core::Tpm>& owned,
               const core::Tpm*& tpm) {
  tpm = nullptr;
  try {
    if (args.has("model")) {
      loaded = core::Tpm::load_file(args.get("model", ""));
      tpm = &loaded;
      std::printf("loaded TPM from %s\n", args.get("model", "").c_str());
    } else if (spec.src.enabled && spec.src.tpm.source != "none") {
      std::printf("training TPM for %s (use --model file.tpm to skip)...\n",
                  spec.ssd.name.c_str());
      owned = scenario::tpm_registry().at(spec.src.tpm.source)(spec.src.tpm,
                                                               spec.ssd);
      tpm = owned.get();
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return false;
  }
  return true;
}

int chaos_run(const Args& args) {
  chaos::CampaignSpec campaign;
  if (!load_chaos_base(args, campaign.base)) return 2;
  campaign.trials = args.get_u64("trials", campaign.trials);
  campaign.seed = args.get_u64("seed", campaign.seed);
  campaign.sampler.link_downs = args.has("link-downs");
  const std::size_t jobs = args.get_u64("jobs", 0);
  const std::string out_dir = args.get("out-dir", "");
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  core::Tpm loaded;
  std::shared_ptr<const core::Tpm> owned;
  const core::Tpm* tpm = nullptr;
  if (!chaos_tpm(args, campaign.base, loaded, owned, tpm)) return 1;

  std::printf("chaos: %zu trials over '%s' (campaign seed %llu)...\n",
              campaign.trials, campaign.base.name.c_str(),
              static_cast<unsigned long long>(campaign.seed));
  const chaos::CampaignResult result = chaos::run_campaign(campaign, jobs, tpm);

  std::vector<chaos::FailureArtifacts> artifacts;
  for (const chaos::TrialFailure& failure : result.failures) {
    chaos::FailureArtifacts art;
    const chaos::TrialOutcome& o = failure.outcome;
    std::printf("trial %zu FAILED: %zu violation(s), first [%s], digest %s, "
                "replay %s\n",
                o.index, o.violations.size(),
                o.violations.front().checker.c_str(),
                chaos::digest_hex(o.digest).c_str(),
                failure.deterministic ? "bit-identical" : "NONDETERMINISTIC");
    if (!out_dir.empty()) {
      art.reproducer_path =
          out_dir + "/trial-" + std::to_string(o.index) + ".json";
      write_manifest(art.reproducer_path, failure.spec);
    }
    if (!args.has("no-shrink") && failure.deterministic) {
      chaos::ShrinkOptions shrink_options;
      shrink_options.max_runs =
          args.get_u64("shrink-budget", shrink_options.max_runs);
      art.shrink = chaos::shrink(failure.spec, tpm, shrink_options);
      art.shrunk = art.shrink.reproduced;
      if (art.shrunk) {
        std::printf("  shrunk [%s]: %zu -> %zu fault entries in %zu runs\n",
                    art.shrink.checker.c_str(), art.shrink.faults_before,
                    art.shrink.faults_after, art.shrink.runs);
        if (!out_dir.empty()) {
          art.minimized_path =
              out_dir + "/trial-" + std::to_string(o.index) + "-min.json";
          write_manifest(art.minimized_path, art.shrink.minimal);
        }
      }
    }
    artifacts.push_back(std::move(art));
  }

  if (!out_dir.empty()) {
    const std::string report_path = out_dir + "/chaos-report.json";
    write_text_file(report_path,
                    chaos::campaign_report_json(campaign, result, artifacts)
                        .dump(2));
    std::printf("report written to %s\n", report_path.c_str());
  }
  std::printf("chaos: %zu/%zu trials clean, %zu failing\n",
              result.clean_trials, result.trials, result.failures.size());
  return result.failures.empty() ? 0 : 3;
}

int chaos_replay(const Args& args, const std::string& path) {
  scenario::ScenarioSpec spec;
  try {
    spec = scenario::load_scenario_file(path);
  } catch (const std::runtime_error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  }
  spec.verify.enabled = true;

  core::Tpm loaded;
  std::shared_ptr<const core::Tpm> owned;
  const core::Tpm* tpm = nullptr;
  if (!chaos_tpm(args, spec, loaded, owned, tpm)) return 1;

  const chaos::RunOutcome first = chaos::run_verified(spec, tpm);
  const chaos::RunOutcome second = chaos::run_verified(spec, tpm);
  for (const verify::Violation& v : first.report->violations) {
    std::printf("verify: [%s] t=%lluns %s\n", v.checker.c_str(),
                static_cast<unsigned long long>(v.when), v.detail.c_str());
  }
  const bool deterministic = first.digest == second.digest;
  std::printf("%s: %zu violation(s), digest %s, replay %s -> %s\n",
              spec.name.c_str(), first.report->violations.size(),
              chaos::digest_hex(first.digest).c_str(),
              chaos::digest_hex(second.digest).c_str(),
              deterministic ? "bit-identical" : "NONDETERMINISTIC");
  if (!deterministic) return 1;
  return first.report->violations.empty() ? 0 : 3;
}

int chaos_shrink(const Args& args, const std::string& path) {
  scenario::ScenarioSpec spec;
  try {
    spec = scenario::load_scenario_file(path);
  } catch (const std::runtime_error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  }

  core::Tpm loaded;
  std::shared_ptr<const core::Tpm> owned;
  const core::Tpm* tpm = nullptr;
  if (!chaos_tpm(args, spec, loaded, owned, tpm)) return 1;

  chaos::ShrinkOptions options;
  options.max_runs = args.get_u64("budget", options.max_runs);
  const chaos::ShrinkResult result = chaos::shrink(spec, tpm, options);
  if (!result.reproduced) {
    std::fprintf(stderr,
                 "shrink: %s does not trip any invariant checker (ran with "
                 "verification forced on)\n",
                 path.c_str());
    return 1;
  }
  const std::string out = args.get("out", "min.json");
  write_manifest(out, result.minimal);
  std::printf("shrunk [%s]: %zu -> %zu fault entries in %zu runs, digest %s "
              "-> %s\n",
              result.checker.c_str(), result.faults_before,
              result.faults_after, result.runs,
              chaos::digest_hex(result.digest).c_str(), out.c_str());
  return 0;
}

int cmd_chaos(const Args& args) {
  if (args.has("help") || args.positionals().empty()) {
    std::puts(
        "srcctl chaos run [--base preset|file.json] [--trials 200] [--seed 1]\n"
        "                 [--jobs N] [--out-dir DIR] [--no-shrink]\n"
        "                 [--shrink-budget 150] [--link-downs]\n"
        "                 [--model file.tpm]\n"
        "srcctl chaos replay <manifest.json> [--model file.tpm]\n"
        "srcctl chaos shrink <failing.json> [-o|--out min.json] [--budget 150]\n"
        "                 [--model file.tpm]\n"
        "\n"
        "run    samples a randomized fault plan per trial over the base\n"
        "       scenario and runs every trial with all invariant checkers\n"
        "       armed; failing trials are replayed (determinism proof),\n"
        "       shrunk to minimal reproducers, and recorded in an\n"
        "       src-chaos-v1 report under --out-dir.\n"
        "replay runs a manifest twice with verification forced on and\n"
        "       compares the outcome digests bit for bit.\n"
        "shrink reduces a failing manifest to a minimal scenario that still\n"
        "       trips the same checker, written as a runnable manifest.\n"
        "\n"
        "Exit codes: 0 clean, 1 failure (nondeterminism, nothing to shrink),\n"
        "2 usage error, 3 invariant violations found.");
    return args.has("help") ? 0 : 2;
  }
  const std::string& sub = args.positionals().front();
  if (sub == "run") {
    if (args.positionals().size() != 1) {
      std::fprintf(stderr, "chaos run: unexpected argument '%s'\n",
                   args.positionals()[1].c_str());
      return 2;
    }
    return chaos_run(args);
  }
  if (sub == "replay" || sub == "shrink") {
    if (args.positionals().size() != 2) {
      std::fprintf(stderr, "chaos %s: expected exactly one manifest file\n",
                   sub.c_str());
      return 2;
    }
    return sub == "replay" ? chaos_replay(args, args.positionals()[1])
                           : chaos_shrink(args, args.positionals()[1]);
  }
  std::fprintf(stderr, "chaos: unknown subcommand '%s'\n", sub.c_str());
  return 2;
}

/// `srcctl lint` — run the srclint binary that ships beside this
/// executable, forwarding all flags and files verbatim (srclint owns its
/// own CLI; see tools/srclint). Conveniences added on top:
///   - when neither --root nor explicit files are given, the repository
///     root is autodetected by walking up from the current directory
///     (marker: a tools/srclint directory next to src/),
///   - the committed baseline (tools/srclint/baseline.txt) is applied
///     automatically in that mode unless the caller names one.
/// The linter's exit code is propagated unchanged (0/1/2).
int cmd_lint(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<std::string> forward(argv + 2, argv + argc);

  static const std::vector<std::string> kValueFlags = {
      "--root",         "--rules",          "--cxx",       "--jobs",
      "--format",       "--baseline",       "--write-baseline",
      "--sarif-out",    "--shared-inventory", "--fail-shared-under"};
  bool has_root = false, has_baseline = false, has_files = false;
  for (std::size_t i = 0; i < forward.size(); ++i) {
    const std::string& arg = forward[i];
    if (arg == "--help") {
      std::puts(
          "srcctl lint [srclint flags] [files...]\n"
          "  with no --root and no files, lints the enclosing repository\n"
          "  against its committed baseline; otherwise forwards verbatim.\n"
          "  srclint flags: --rules R1,.. --format text|json|sarif\n"
          "  --baseline F --write-baseline F --sarif-out F\n"
          "  --shared-inventory F --fail-shared-under PREFIX\n"
          "  --no-header-check --cxx CC --jobs N --list");
      return 0;
    }
    if (arg == "--root") has_root = true;
    if (arg == "--baseline" || arg == "--write-baseline") has_baseline = true;
    if (arg.rfind("--", 0) == 0) {
      // Skip this flag's value so it is not mistaken for a file.
      if (std::find(kValueFlags.begin(), kValueFlags.end(), arg) !=
          kValueFlags.end()) {
        ++i;
      }
      continue;
    }
    has_files = true;
  }

  if (!has_root && !has_files) {
    fs::path probe = fs::current_path();
    fs::path root;
    for (; !probe.empty(); probe = probe.parent_path()) {
      if (fs::is_directory(probe / "tools" / "srclint") &&
          fs::is_directory(probe / "src")) {
        root = probe;
        break;
      }
      if (probe == probe.root_path()) break;
    }
    if (root.empty()) {
      std::fprintf(stderr,
                   "srcctl lint: not inside the repository (no tools/srclint "
                   "found walking up from the current directory); pass "
                   "--root or explicit files\n");
      return 2;
    }
    forward.insert(forward.begin(), {"--root", root.string()});
    const fs::path baseline = root / "tools" / "srclint" / "baseline.txt";
    if (!has_baseline && fs::exists(baseline)) {
      forward.push_back("--baseline");
      forward.push_back(baseline.string());
    }
  }

  // The srclint binary is built into the same directory as srcctl.
  std::error_code ec;
  fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) self = fs::absolute(argv[0], ec);
  const fs::path srclint = self.parent_path() / "srclint";
  if (!fs::exists(srclint)) {
    std::fprintf(stderr, "srcctl lint: srclint binary not found at '%s' "
                 "(build the `srclint` target)\n", srclint.c_str());
    return 2;
  }

  std::vector<std::string> exec_args;
  exec_args.push_back(srclint.string());
  exec_args.insert(exec_args.end(), forward.begin(), forward.end());
  std::vector<char*> exec_argv;
  exec_argv.reserve(exec_args.size() + 1);
  for (std::string& a : exec_args) exec_argv.push_back(a.data());
  exec_argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("srcctl lint: fork");
    return 2;
  }
  if (pid == 0) {
    execv(exec_argv[0], exec_argv.data());
    std::perror("srcctl lint: execv");
    _exit(127);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::perror("srcctl lint: waitpid");
    return 2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}

/// The subcommand table: name, one-line summary for the generated help,
/// the flags the handler reads (space-separated; `--help` is always
/// accepted and main rejects any other flag up front), handler, and
/// whether positional operands are accepted (commands that take only flags
/// reject strays up front). Forwarding commands (lint) set `raw_handler`
/// instead and receive untouched argc/argv.
struct Command {
  const char* name;
  const char* summary;
  const char* flags;
  int (*handler)(const Args&) = nullptr;
  bool takes_positionals = false;
  int (*raw_handler)(int, char**) = nullptr;
};

const Command kCommands[] = {
    {"sweep", "fig-5-style weight-ratio sweep on one workload",
     "count iat seed size-kb ssd", cmd_sweep},
    {"experiment", "DCQCN-only vs DCQCN-SRC on an evaluation preset",
     "initiators metrics-out model preset seed targets", cmd_experiment},
    {"run", "run a scenario manifest (src-scenario-v1 JSON)",
     "dump lanes lenient metrics-out model", cmd_run, true},
    {"scenarios", "list the built-in scenario presets / dump them as JSON",
     "all out-dir", cmd_scenarios, true},
    {"trace", "run a preset with tracing on; emit Chrome trace JSON",
     "capacity metrics-out model out preset", cmd_trace},
    {"tpm", "train a throughput prediction model and inspect it",
     "save seed ssd", cmd_tpm},
    {"trace-gen", "generate a CSV block trace (micro / vdi / cbs)",
     "count iat out preset seed size-kb", cmd_trace_gen},
    {"trace-stats", "summarize a CSV block trace", "trace", cmd_trace_stats},
    {"replay", "replay a CSV trace against a simulated SSD",
     "ssd trace weight", cmd_replay},
    {"faults", "canned fault-injection scenario with timeout/retry",
     "devices drop-end-ms drop-prob drop-start-ms max-retries no-retry "
     "outage-device outage-end-ms outage-start-ms requests seed",
     cmd_faults},
    {"chaos", "randomized fault campaigns with invariant verification",
     "base budget jobs link-downs model no-shrink out out-dir seed "
     "shrink-budget trials",
     cmd_chaos, true},
    {"benchcheck", "validate BENCH_*.json files against src-bench-v1",
     "baseline tolerance", cmd_benchcheck, true},
    {"benchdiff", "per-section throughput delta between two BENCH_*.json",
     "tolerance", cmd_benchdiff, true},
    {"metricscheck", "validate srcctl run reports (src-run-v1 / src-pod-run-v1)",
     "", cmd_metricscheck, true},
    {"lint", "run the srclint determinism & invariant linter (R1-R9)",
     "", nullptr, true, cmd_lint},
};

int print_usage(std::FILE* out) {
  std::fprintf(out, "usage: srcctl <command> [--flags]\n\ncommands:\n");
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %-12s %s\n", command.name, command.summary);
  }
  std::fprintf(out, "\nrun `srcctl <command> --help` for per-command flags\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  if (name.empty() || name == "help" || name == "--help") {
    return print_usage(name.empty() ? stderr : stdout);
  }
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    if (command.raw_handler != nullptr) return command.raw_handler(argc, argv);
    const Args args(argc, argv, 2);
    const std::string known = std::string(" help ") + command.flags + " ";
    for (const auto& [flag, value] : args.flags()) {
      (void)value;
      if (known.find(" " + flag + " ") == std::string::npos) {
        std::fprintf(stderr, "srcctl: --%s: unknown flag for '%s'\n",
                     flag.c_str(), command.name);
        return 2;
      }
    }
    if (!command.takes_positionals && !args.positionals().empty()) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", command.name,
                   args.positionals().front().c_str());
      return 2;
    }
    return command.handler(args);
  }
  std::fprintf(stderr, "srcctl: unknown command '%s'\n\n", name.c_str());
  return print_usage(stderr);
}

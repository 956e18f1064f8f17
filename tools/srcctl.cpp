// srcctl — command-line front end for the SRC simulator library.
//
// Subcommands live in the kCommands table at the bottom. Each entry declares
// its flags and operands once, with their types; main parses and checks all
// of them before the handler runs, and `srcctl <command> --help` is
// generated from the same table. `srcctl help` lists the commands.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "chaos/shrink.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "core/standalone.hpp"
#include "obs/obs.hpp"
#include "scenario/build.hpp"
#include "scenario/presets.hpp"
#include "scenario/registry.hpp"
#include "scenario/serialize.hpp"
#include "verify/invariants.hpp"
#include "workload/trace_io.hpp"

using namespace src;

namespace {

namespace fs = std::filesystem;

/// A rejected command line, or an input a handler refuses before it starts
/// work: main prints one `srcctl` diagnostic line and exits 2. `subject`
/// names the flag ("--iat") or operand ("<scenario.json>") at fault; when it
/// is empty the message is about the command as a whole.
struct UsageError : std::runtime_error {
  UsageError(std::string subject_name, const std::string& message)
      : std::runtime_error(message), subject(std::move(subject_name)) {}
  std::string subject;
};

// --- typed flags ---------------------------------------------------------

enum class Kind { kNumber, kInteger, kInput, kOutput, kSwitch, kChoice, kText };

constexpr double kInf = std::numeric_limits<double>::infinity();

/// What a flag's value or an operand must be. Number and integer bounds are
/// inclusive unless `lo_open`; an input path must exist; an output path's
/// parent directory must exist.
struct Type {
  Kind kind = Kind::kText;
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  const char* choices = "";  ///< kChoice: "a|b|c"
  bool required = false;     ///< flags only: must be given
};

Type number(double lo = -kInf, double hi = kInf) {
  return {Kind::kNumber, lo, hi};
}
Type positive() { return {Kind::kNumber, 0.0, kInf, true}; }
Type integer(double lo = 0.0, double hi = kInf) {
  return {Kind::kInteger, lo, hi};
}
Type choice(const char* choices) {
  return {Kind::kChoice, -kInf, kInf, false, choices};
}
Type required(Type type) {
  type.required = true;
  return type;
}
const Type kInput{Kind::kInput};
const Type kOutput{Kind::kOutput};
const Type kSwitch{Kind::kSwitch};
const Type kText{Kind::kText};

/// {name, type, default (empty = none), one-line help, scope}. A scoped
/// flag is read only when the command's mode selector has that value.
struct Flag {
  std::string name;
  Type type;
  std::string fallback;
  const char* help;
  const char* scope = "";  ///< mode value that reads it; "" = every mode
};

/// A positional operand slot that takes `min`..`max` tokens.
struct Operand {
  const char* name;
  Type type;
  std::size_t min;
  std::size_t max;
  const char* help;
};

constexpr std::size_t kMany = std::numeric_limits<std::size_t>::max();

class Args;

struct Command {
  const char* name;
  const char* summary;
  std::vector<Flag> flags;
  std::vector<Operand> operands;
  int (*handler)(const Args&);
  const char* notes = "";  ///< extra paragraph for --help
  /// "--flag" or "<operand>" whose value selects which scoped flags apply.
  const char* mode = "";
};

/// "chaos run" or "trace-gen --preset micro": the command line a scoped
/// flag belongs to.
std::string scope_text(const Command& command, const Flag& flag) {
  const std::string mode = command.mode;
  return std::string(command.name) + " " +
         (mode.rfind("--", 0) == 0 ? mode + " " : "") + flag.scope;
}

template <typename T>
bool parse_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

/// " >= 0", " > 0", " in [1, 8]" or "" (unbounded).
std::string range_text(const Type& type) {
  const auto bound = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", x);
    return std::string(buf);
  };
  if (type.hi < kInf) {
    return std::string(type.lo_open ? " in (" : " in [") + bound(type.lo) +
           ", " + bound(type.hi) + "]";
  }
  if (type.lo == -kInf || (type.kind == Kind::kInteger && type.lo == 0.0)) {
    return "";
  }
  return (type.lo_open ? " > " : " >= ") + bound(type.lo);
}

/// The type as the generated help spells it, e.g. "number > 0".
std::string describe(const Type& type) {
  switch (type.kind) {
    case Kind::kNumber: return "number" + range_text(type);
    case Kind::kInteger: return "integer" + range_text(type);
    case Kind::kInput: return "input path";
    case Kind::kOutput: return "output path";
    case Kind::kChoice: return type.choices;
    case Kind::kSwitch: return "";
    case Kind::kText: return "text";
  }
  return "";
}

bool in_range(const Type& type, double v) {
  return (type.lo_open ? v > type.lo : v >= type.lo) && v <= type.hi;
}

/// Throws the located UsageError for a value (nullopt: given without one)
/// the type rejects.
void check_value(const std::string& subject, const Type& type,
                 const std::optional<std::string>& given) {
  const std::string value = given.value_or("");
  const auto reject = [&](const std::string& want) {
    throw UsageError(subject, "expected " + want + ", got " +
                                  (given ? "'" + value + "'" : "no value"));
  };
  std::error_code ec;
  switch (type.kind) {
    case Kind::kNumber: {
      double v = 0.0;
      if (!parse_whole(value, v) || !std::isfinite(v)) reject("a number");
      if (!in_range(type, v)) reject("a number" + range_text(type));
      return;
    }
    case Kind::kInteger: {
      std::uint64_t v = 0;
      if (!parse_whole(value, v)) reject("a non-negative integer");
      if (!in_range(type, static_cast<double>(v))) {
        reject("an integer" + range_text(type));
      }
      return;
    }
    case Kind::kInput:
      if (value.empty() || !fs::exists(value, ec)) reject("an existing path");
      return;
    case Kind::kOutput: {
      const fs::path parent = fs::path(value).parent_path();
      if (value.empty() || !fs::is_directory(parent.empty() ? "." : parent, ec)) {
        reject("a path in an existing directory");
      }
      return;
    }
    case Kind::kChoice:
      if (value.empty() || ("|" + std::string(type.choices) + "|")
                                   .find("|" + value + "|") == std::string::npos) {
        reject(std::string("one of ") + type.choices);
      }
      return;
    case Kind::kSwitch:
      if (given) reject("no value");
      return;
    case Kind::kText:
      if (!given) reject("a value");
      return;
  }
}

const Flag kHelpFlag{"help", kSwitch, "", "print this help"};

/// The parsed command line of one command: `--flag value`, `--flag=value`
/// and operands, checked against the command's declarations. Construction
/// rejects unknown flags; check() rejects every bad value and operand.
/// Accessors return the given value, else the declared default.
class Args {
 public:
  Args(const Command& command, int argc, char** argv) : command_(command) {
    for (int i = 2; i < argc; ++i) {
      std::string token = argv[i];
      tokens_.push_back(token);
      if (token == "-o") token = "--out";  // conventional short form
      if (token.rfind("--", 0) != 0) {
        operands_.push_back(token);
        continue;
      }
      token.erase(0, 2);
      const auto eq = token.find('=');
      const std::string key = token.substr(0, eq);
      const Flag* flag = find(key);
      if (flag == nullptr) {
        throw UsageError("--" + key, "unknown flag for '" +
                                         std::string(command.name) + "'");
      }
      std::optional<std::string> value;
      if (eq != std::string::npos) {
        value = token.substr(eq + 1);
      } else if (flag->type.kind != Kind::kSwitch && i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
        tokens_.push_back(*value);
      }
      values_[key] = std::move(value);  // the last occurrence wins
    }
  }

  /// Every given value against its type, then required flags, then the
  /// operand slots in order, then the scoped flags against the mode.
  void check() const {
    for (const Flag& flag : command_.flags) {
      const auto it = values_.find(flag.name);
      if (it != values_.end()) check_value("--" + flag.name, flag.type, it->second);
    }
    for (const Flag& flag : command_.flags) {
      if (flag.type.required && values_.count(flag.name) == 0) {
        throw UsageError("--" + flag.name, "required by '" +
                                               std::string(command_.name) + "'");
      }
    }
    std::size_t next = 0;
    for (const Operand& operand : command_.operands) {
      const std::string slot = std::string("<").append(operand.name).append(">");
      std::size_t taken = 0;
      for (; taken < operand.max && next < operands_.size(); ++taken, ++next) {
        check_value(slot, operand.type, operands_[next]);
      }
      if (taken < operand.min) throw UsageError("", "missing " + slot);
    }
    if (next < operands_.size()) {
      throw UsageError("", "unexpected argument '" + operands_[next] + "'");
    }
    const std::string mode = mode_value();
    for (const Flag& flag : command_.flags) {
      if (*flag.scope != '\0' && has(flag.name) && mode != flag.scope) {
        throw UsageError("--" + flag.name,
                         "only '" + scope_text(command_, flag) + "' reads it");
      }
    }
  }

  bool has(const std::string& name) const { return values_.count(name) > 0; }
  std::string text(const std::string& name) const {
    const auto it = values_.find(name);
    if (it != values_.end() && it->second.has_value()) return *it->second;
    const Flag* flag = find(name);
    return flag == nullptr ? std::string() : flag->fallback;
  }
  double number(const std::string& name) const {
    double value = 0.0;
    parse_whole(text(name), value);
    return value;
  }
  std::uint64_t integer(const std::string& name) const {
    std::uint64_t value = 0;
    parse_whole(text(name), value);
    return value;
  }
  const std::vector<std::string>& operands() const { return operands_; }
  /// The command line after the command name, verbatim.
  const std::vector<std::string>& tokens() const { return tokens_; }

 private:
  /// The mode selector's value: the flag's value or default, or the
  /// operand's token (operands before it take exactly one token each).
  std::string mode_value() const {
    const std::string mode = command_.mode;
    if (mode.rfind("--", 0) == 0) return text(mode.substr(2));
    for (std::size_t i = 0; i < command_.operands.size(); ++i) {
      if ("<" + std::string(command_.operands[i].name) + ">" == mode) {
        return i < operands_.size() ? operands_[i] : std::string();
      }
    }
    return "";
  }

  const Flag* find(const std::string& name) const {
    if (name == kHelpFlag.name) return &kHelpFlag;
    for (const Flag& flag : command_.flags) {
      if (flag.name == name) return &flag;
    }
    return nullptr;
  }

  const Command& command_;
  std::map<std::string, std::optional<std::string>> values_;
  std::vector<std::string> operands_;
  std::vector<std::string> tokens_;
};

// --- shared helpers ------------------------------------------------------

/// Write `text` plus a newline to `path`; throws on failure.
void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << text << '\n';
}

/// Write a scenario manifest in its canonical to_json_text form.
void write_manifest(const std::string& path,
                    const scenario::ScenarioSpec& spec) {
  write_text_file(path, scenario::to_json(spec).dump(2));
}

/// Load a manifest; a file that does not parse is a usage error.
scenario::ScenarioSpec load_manifest(const std::string& path) {
  try {
    return scenario::load_scenario_file(path);
  } catch (const std::runtime_error& err) {
    throw UsageError("", err.what());
  }
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

// --- commands ------------------------------------------------------------

int cmd_sweep(const Args& args) {
  const auto config = ssd::config_by_name(args.text("ssd"));
  const auto trace = workload::generate_micro(
      workload::symmetric_micro(args.number("iat"),
                                args.number("size-kb") * 1024,
                                args.integer("count")),
      args.integer("seed"));

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

/// The report's `timeline`: read and write bytes and congestion signals per
/// bin, as the result holds them (Figs. 7 and 8). The result pads both
/// throughput timelines to the whole bins of the run, but a completion in
/// the last, partial bin adds one more to its own side only, and the signal
/// timeline ends at its last signal; the report pads each series with zeros
/// to the longest, so all three share one span. A pod run records no
/// timelines, so its series are empty.
obs::Json timeline_report(const core::ExperimentResult& result) {
  const common::ThroughputTimeline& reads = result.read_timeline;
  const common::ThroughputTimeline& writes = result.write_timeline;
  const common::EventTimeline& pauses = result.pause_timeline;
  obs::Json read{obs::Json::Array{}};
  obs::Json write{obs::Json::Array{}};
  obs::Json signals{obs::Json::Array{}};
  const std::size_t bins =
      std::max({reads.bin_count(), writes.bin_count(), pauses.bin_count()});
  for (std::size_t i = 0; i < bins; ++i) {
    read.push_back(obs::Json{i < reads.bin_count() ? reads.bin_bytes(i) : 0});
    write.push_back(obs::Json{i < writes.bin_count() ? writes.bin_bytes(i) : 0});
    signals.push_back(obs::Json{i < pauses.bin_count() ? pauses.bin(i) : 0});
  }
  obs::Json timeline{obs::Json::Object{}};
  timeline.set("bin_ns", obs::Json{reads.bin_width()});
  timeline.set("read_bytes", std::move(read));
  timeline.set("write_bytes", std::move(write));
  timeline.set("congestion_signals", std::move(signals));
  return timeline;
}

/// Run-report JSON ("src-run-v1"): scenario name, headline metrics, the
/// per-ms timelines, and the full observatory snapshot. `srcctl
/// metricscheck` validates this shape.
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
  report.set("timeline", timeline_report(result));
  report.set("metrics", observatory.metrics().snapshot());
  return report;
}

/// --trace-out: write the run's Perfetto trace and say what it kept.
void write_trace(const Args& args, const obs::Observatory& observatory) {
  if (!args.has("trace-out")) return;
  const std::string out = args.text("trace-out");
  write_text_file(out, observatory.trace_json());
  std::printf("trace: %zu events kept (%llu recorded, %llu dropped) -> %s\n",
              observatory.tracer().size(),
              static_cast<unsigned long long>(observatory.tracer().recorded()),
              static_cast<unsigned long long>(observatory.tracer().dropped()),
              out.c_str());
}

/// Robustness counters: all zero on a healthy run, so the line is printed
/// only when the fault/retry machinery actually did something.
void print_robustness(const std::string& name, const core::ExperimentResult& r) {
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
              name.c_str(), static_cast<unsigned long long>(r.retries),
              static_cast<unsigned long long>(r.timeouts),
              static_cast<unsigned long long>(r.error_completions),
              static_cast<unsigned long long>(r.reads_failed + r.writes_failed),
              static_cast<unsigned long long>(r.rerouted_requests),
              static_cast<unsigned long long>(r.signals_suppressed),
              static_cast<unsigned long long>(r.controller_stats.invalid_demand_events),
              static_cast<unsigned long long>(r.controller_stats.rejected_predictions),
              static_cast<unsigned long long>(r.controller_stats.watchdog_decays));
}

/// The TPM every run of `spec` shares: --model loads a file, else an
/// SRC-enabled spec resolves its tpm source once. Null for a DCQCN-only
/// spec.
std::shared_ptr<const core::Tpm> resolve_tpm(const Args& args,
                                             const scenario::ScenarioSpec& spec) {
  if (args.has("model")) {
    auto tpm = std::make_shared<const core::Tpm>(
        core::Tpm::load_file(args.text("model")));
    std::printf("loaded TPM from %s\n", args.text("model").c_str());
    return tpm;
  }
  if (!spec.src.enabled || spec.src.tpm.source == "none") return nullptr;
  if (spec.src.tpm.source == "train-default") {
    std::printf("training TPM for %s (use --model file.tpm to skip)...\n",
                spec.ssd.name.c_str());
  }
  return scenario::tpm_registry().at(spec.src.tpm.source)(spec.src.tpm, spec.ssd);
}

int cmd_run(const Args& args) {
  const std::string& path = args.operands().front();
  scenario::ScenarioSpec spec = load_manifest(path);
  if (args.has("lanes")) {
    // Re-read the overridden spec so --lanes meets the same checks as $.lanes.
    spec.lanes = args.integer("lanes");
    try {
      spec = scenario::from_json(scenario::to_json(spec), path);
    } catch (const std::runtime_error& err) {
      throw UsageError("--lanes", err.what());
    }
  }
  if (args.has("dump")) {
    std::fputs(scenario::to_json_text(spec).c_str(), stdout);
    return 0;
  }
  const bool traced = args.has("trace-out");
  if (args.has("trace-capacity") && !traced) {
    throw UsageError("--trace-capacity", "needs --trace-out");
  }
  obs::ObsConfig obs_config;
  obs_config.tracing = traced;
  obs_config.trace_capacity = args.integer("trace-capacity");
  obs::Observatory observatory(obs_config);

  const auto model = resolve_tpm(args, spec);
  scenario::BuildOptions options;
  options.tpm = model.get();
  options.observatory = &observatory;

  // Both topology kinds report one ExperimentResult; a star is built here
  // so its invariant-checker report outlives the run.
  const bool pod = spec.topology.kind == "pod";
  const scenario::BuiltScenario built =
      pod ? scenario::BuiltScenario{} : scenario::build(spec, options);
  const core::ExperimentResult result =
      pod ? scenario::run(spec, options) : core::run_experiment(built.config);

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
  print_robustness(spec.name, result);
  write_trace(args, observatory);
  if (args.has("metrics-out")) {
    const std::string out = args.text("metrics-out");
    write_text_file(out, run_report(spec.name, result, observatory).dump(2));
    std::printf("metrics written to %s\n", out.c_str());
  }

  // Health gate (exit 3): controller guardrails, retry exhaustion, and any
  // invariant-checker findings are hard failures unless --lenient.
  const std::uint64_t guardrails = result.controller_stats.invalid_demand_events +
                                   result.controller_stats.rejected_predictions +
                                   result.controller_stats.watchdog_decays;
  const std::uint64_t exhausted = result.reads_failed + result.writes_failed;
  std::size_t violations = 0;
  if (built.verify_report != nullptr) {
    violations = built.verify_report->violations.size();
    for (const verify::Violation& v : built.verify_report->violations) {
      std::fprintf(stderr, "verify: [%s] t=%lluns %s\n", v.checker.c_str(),
                   static_cast<unsigned long long>(v.when), v.detail.c_str());
    }
    if (built.verify_report->truncated) {
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
  if (!args.operands().empty()) {
    scenario::ScenarioSpec spec;
    try {
      spec = scenario::preset_spec(args.operands().front());
    } catch (const std::invalid_argument& err) {
      throw UsageError("", err.what());
    }
    std::fputs(scenario::to_json_text(spec).c_str(), stdout);
    return 0;
  }
  if (args.has("out-dir") && !args.has("all")) {
    throw UsageError("--out-dir", "needs --all");
  }
  if (args.has("all")) {
    const std::string dir = args.text("out-dir");
    if (dir.empty()) throw UsageError("--all", "needs --out-dir DIR");
    fs::create_directory(dir);
    for (const std::string& name : scenario::preset_registry().names()) {
      const std::string path = (fs::path(dir) / (name + ".json")).string();
      write_manifest(path, scenario::preset_spec(name));
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

int cmd_tpm(const Args& args) {
  const auto config = ssd::config_by_name(args.text("ssd"));
  std::printf("collecting training data on %s...\n", config.name.c_str());
  const ml::Dataset data = core::default_training_data(config, args.integer("seed"));
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
    // The split model above only scores; the file holds the model a
    // manifest's "train-default" source fits: the same samples, all of them.
    const std::string out = args.text("save");
    core::Tpm full;
    full.fit(data);
    full.save_file(out);
    std::printf("model written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_trace_gen(const Args& args) {
  const std::string preset = args.text("preset");
  const std::size_t count = args.integer("count");
  const std::uint64_t seed = args.integer("seed");
  workload::Trace trace;
  if (preset == "micro") {
    trace = workload::generate_micro(
        workload::symmetric_micro(args.number("iat"),
                                  args.number("size-kb") * 1024, count),
        seed);
  } else if (preset == "vdi") {
    trace = workload::generate_synthetic(workload::fujitsu_vdi_like(count), seed);
  } else {
    trace = workload::generate_synthetic(workload::tencent_cbs_like(count), seed);
  }
  const std::string out = args.text("out");
  workload::write_csv_trace_file(out, trace);
  std::printf("wrote %zu requests to %s\n", trace.size(), out.c_str());
  return 0;
}

int cmd_trace_stats(const Args& args) {
  const auto trace = workload::read_csv_trace_file(args.text("trace"));
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
  const auto trace = workload::read_csv_trace_file(args.text("trace"));
  core::StandaloneOptions options;
  options.weight_ratio = static_cast<std::uint32_t>(args.integer("weight"));
  options.horizon = core::arrival_horizon(trace);
  const auto result = core::run_standalone(ssd::config_by_name(args.text("ssd")),
                                           trace, options);
  std::printf("%zu requests: read %.2f Gbps, write %.2f Gbps, "
              "read latency %.0f us, write latency %.0f us\n",
              trace.size(), result.read_rate.as_gbps(),
              result.write_rate.as_gbps(), result.mean_read_latency_us,
              result.mean_write_latency_us);
  return 0;
}

/// Load one bench-harness JSON file (schema "src-bench-v1", written by
/// bench/harness.hpp) into `doc` and validate it. Returns an empty string
/// when valid, else a message.
std::string load_bench_json(const std::string& path, obs::Json& doc) {
  const std::string error = load_json_file(path, doc);
  if (!error.empty()) return error;
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

/// Shared driver for the *check commands: validate each operand file with
/// `check`, print per-file ok/FAILED lines, exit 1 on any failure.
int run_file_checks(const Args& args, const char* what,
                    const std::function<std::string(const std::string&)>& check) {
  int failures = 0;
  for (const std::string& path : args.operands()) {
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
                 args.operands().size());
  }
  return failures == 0 ? 0 : 1;
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
  obs::Json baseline;
  if (args.has("baseline")) {
    const std::string error = load_bench_json(args.text("baseline"), baseline);
    if (!error.empty()) throw UsageError("--baseline", error);
  }
  return run_file_checks(args, "benchcheck", [&](const std::string& path) {
    obs::Json doc;
    std::string error = load_bench_json(path, doc);
    if (error.empty() && args.has("baseline")) {
      error = diff_bench_json(baseline, doc, args.number("tolerance"));
    }
    return error;
  });
}

/// Perf trajectory diff between two src-bench-v1 files: per section,
/// compares *throughput* — events/sec when the old section dispatched
/// simulator events, items/sec otherwise — and fails on regressions beyond
/// the tolerance. The complement of `benchcheck --baseline` (which gates
/// the deterministic workload and never looks at speed): benchdiff is the
/// speed gate, run on measurements from the same machine class.
int cmd_benchdiff(const Args& args) {
  const std::string old_path = args.operands()[0];
  const std::string new_path = args.operands()[1];
  const double tolerance = args.number("tolerance");

  obs::Json old_doc, new_doc;
  for (const auto& [path, doc] : {std::pair{&old_path, &old_doc},
                                  std::pair{&new_path, &new_doc}}) {
    const std::string error = load_bench_json(*path, *doc);
    if (!error.empty()) throw UsageError("", *path + ": " + error);
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

/// True for a JSON number that holds a non-negative integer.
bool is_count(const obs::Json* value) {
  // srclint:fp-ok(exact test that a JSON number holds an integer)
  return value != nullptr && value->is_number() && value->as_number() >= 0.0 &&
         std::floor(value->as_number()) == value->as_number();
}

/// Validate one `metrics.histograms` entry: strictly ascending `bounds`,
/// one more `counts` entry than `bounds`, all non-negative integers summing
/// to `total`, and a numeric `sum`. Returns an empty string when valid,
/// else a message.
std::string check_histogram(const obs::Json& hist) {
  if (!hist.is_object()) return "not an object";
  const obs::Json* bounds = hist.find("bounds");
  const obs::Json* counts = hist.find("counts");
  const obs::Json* total = hist.find("total");
  const obs::Json* sum = hist.find("sum");
  if (bounds == nullptr || !bounds->is_array()) return "missing \"bounds\" array";
  if (counts == nullptr || !counts->is_array()) return "missing \"counts\" array";
  if (!is_count(total)) return "\"total\" is not a non-negative integer";
  if (sum == nullptr || !sum->is_number()) return "missing numeric \"sum\"";
  const obs::Json::Array& edges = bounds->as_array();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!edges[i].is_number() ||
        (i > 0 && !(edges[i - 1].as_number() < edges[i].as_number()))) {
      return "\"bounds\" are not strictly ascending numbers";
    }
  }
  if (counts->as_array().size() != edges.size() + 1) {
    return "has " + std::to_string(counts->as_array().size()) + " \"counts\" for " +
           std::to_string(edges.size()) + " \"bounds\" (want one more)";
  }
  std::uint64_t seen = 0;
  for (const obs::Json& count : counts->as_array()) {
    if (!is_count(&count)) return "\"counts\" are not all non-negative integers";
    seen += count.as_uint64();
  }
  if (seen != total->as_uint64()) {
    return "\"counts\" sum to " + std::to_string(seen) + ", not \"total\" " +
           std::to_string(total->as_uint64());
  }
  return "";
}

/// Validate a report's `timeline`: a positive integer `bin_ns` and three
/// arrays of non-negative integers, all of one length.
/// Returns an empty string when valid, else a message naming the key.
std::string check_timeline(const obs::Json* timeline) {
  if (timeline == nullptr || !timeline->is_object()) {
    return "missing \"timeline\" object";
  }
  const obs::Json* bin_ns = timeline->find("bin_ns");
  if (!is_count(bin_ns) || bin_ns->as_uint64() == 0) {
    return "timeline.bin_ns: not a positive integer";
  }
  for (const char* key : {"read_bytes", "write_bytes", "congestion_signals"}) {
    const obs::Json* series = timeline->find(key);
    if (series == nullptr || !series->is_array()) {
      return std::string("timeline: missing \"") + key + "\" array";
    }
    for (const obs::Json& value : series->as_array()) {
      if (!is_count(&value)) {
        return std::string("timeline.") + key +
               ": not all entries are non-negative integers";
      }
    }
  }
  const std::size_t reads = timeline->find("read_bytes")->as_array().size();
  for (const char* key : {"write_bytes", "congestion_signals"}) {
    const std::size_t bins = timeline->find(key)->as_array().size();
    if (bins != reads) {
      return "timeline: read_bytes has " + std::to_string(reads) + " bins, " + key + " " +
             std::to_string(bins);
    }
  }
  return "";
}

/// Validate one `srcctl run --metrics-out` report ("src-run-v1", for
/// every topology kind). Returns an empty string when valid, else a message.
std::string check_run_json(const std::string& path) {
  obs::Json doc;
  const std::string error = load_json_file(path, doc);
  if (!error.empty()) return error;
  if (!doc.is_object()) return "top level is not an object";
  const obs::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "src-run-v1") {
    return "unexpected schema " + (schema ? schema->dump() : "(none)") +
           " (want \"src-run-v1\")";
  }
  const obs::Json* name = doc.find("scenario");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return "missing \"scenario\" name";
  }
  for (const char* key : {"read_gbps", "write_gbps", "aggregate_gbps",
                          "total_pauses", "reads_completed",
                          "writes_completed", "final_weight_ratio"}) {
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
  for (const char* key : {"per_initiator_read_gbps", "read_shares"}) {
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
  const obs::Json* histograms = metrics->find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    return "metrics: missing \"histograms\" object";
  }
  for (const auto& [histogram, value] : histograms->as_object()) {
    const std::string problem = check_histogram(value);
    if (!problem.empty()) return "metrics.histograms." + histogram + ": " + problem;
  }
  return check_timeline(doc.find("timeline"));
}

int cmd_metricscheck(const Args& args) {
  return run_file_checks(args, "metricscheck", check_run_json);
}

int chaos_run(const Args& args) {
  chaos::CampaignSpec campaign;
  // --base is a preset name or (when it looks like a path) a manifest file.
  const std::string base = args.text("base");
  if (base.empty()) {
    campaign.base = chaos::default_base_spec();
  } else if (base.find_first_of("./") != std::string::npos) {
    campaign.base = load_manifest(base);
  } else {
    try {
      campaign.base = scenario::preset_spec(base);
    } catch (const std::invalid_argument& err) {
      throw UsageError("--base", err.what());
    }
  }
  campaign.trials = args.integer("trials");
  campaign.seed = args.integer("seed");
  campaign.sampler.link_downs = args.has("link-downs");
  const std::size_t jobs = args.integer("jobs");
  const std::string out_dir = args.text("out-dir");
  if (!out_dir.empty()) fs::create_directory(out_dir);

  const auto model = resolve_tpm(args, campaign.base);
  const core::Tpm* tpm = model.get();

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
      shrink_options.max_runs = args.integer("shrink-budget");
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
  scenario::ScenarioSpec spec = load_manifest(path);
  spec.verify.enabled = true;

  const auto model = resolve_tpm(args, spec);
  const core::Tpm* tpm = model.get();

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
  const scenario::ScenarioSpec spec = load_manifest(path);

  const auto model = resolve_tpm(args, spec);
  const core::Tpm* tpm = model.get();

  chaos::ShrinkOptions options;
  options.max_runs = args.integer("budget");
  const chaos::ShrinkResult result = chaos::shrink(spec, tpm, options);
  if (!result.reproduced) {
    std::fprintf(stderr,
                 "shrink: %s does not trip any invariant checker (ran with "
                 "verification forced on)\n",
                 path.c_str());
    return 1;
  }
  const std::string out = args.text("out");
  write_manifest(out, result.minimal);
  std::printf("shrunk [%s]: %zu -> %zu fault entries in %zu runs, digest %s "
              "-> %s\n",
              result.checker.c_str(), result.faults_before,
              result.faults_after, result.runs,
              chaos::digest_hex(result.digest).c_str(), out.c_str());
  return 0;
}

int cmd_chaos(const Args& args) {
  const std::string& sub = args.operands().front();
  if (sub == "run") {
    if (args.operands().size() != 1) {
      throw UsageError("", "run takes no <manifest.json>");
    }
    return chaos_run(args);
  }
  if (args.operands().size() != 2) {
    throw UsageError("", sub + " needs a <manifest.json>");
  }
  return sub == "replay" ? chaos_replay(args, args.operands()[1])
                         : chaos_shrink(args, args.operands()[1]);
}

/// `srcctl lint` — replace this process with the srclint binary built
/// beside it, forwarding the checked command line verbatim, so the linter's
/// exit code (0/1/2) is srcctl's. With neither --root nor files, the
/// repository root is found by walking up from the current directory (a
/// tools/srclint directory next to src/), and the committed baseline
/// (tools/srclint/baseline.txt) applies unless the caller names one.
int cmd_lint(const Args& args) {
  std::vector<std::string> forward = args.tokens();
  if (!args.has("root") && args.operands().empty()) {
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
      throw UsageError("", "not inside the repository (no tools/srclint "
                           "found walking up from the current directory); "
                           "pass --root or explicit files");
    }
    forward.insert(forward.begin(), {"--root", root.string()});
    const fs::path baseline = root / "tools" / "srclint" / "baseline.txt";
    if (!args.has("baseline") && !args.has("write-baseline") &&
        fs::exists(baseline)) {
      forward.push_back("--baseline");
      forward.push_back(baseline.string());
    }
  }

  // The srclint binary is built into the same directory as srcctl.
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  const fs::path srclint = self.parent_path() / "srclint";
  if (ec || !fs::exists(srclint)) {
    throw std::runtime_error("srclint binary not found at '" +
                             srclint.string() + "' (build the `srclint` target)");
  }

  std::vector<std::string> exec_args{srclint.string()};
  exec_args.insert(exec_args.end(), forward.begin(), forward.end());
  std::vector<char*> exec_argv;
  for (std::string& a : exec_args) exec_argv.push_back(a.data());
  exec_argv.push_back(nullptr);
  std::fflush(stdout);
  execv(exec_argv[0], exec_argv.data());
  throw std::runtime_error("cannot execute " + srclint.string());
}

// --- the command table ---------------------------------------------------

const char* const kSsds = "SSD-A|SSD-B|SSD-C";

const Command kCommands[] = {
    {"sweep", "fig-5-style weight-ratio sweep on one workload",
     {{"ssd", choice(kSsds), "SSD-A", "SSD model"},
      {"iat", positive(), "15", "mean inter-arrival time per stream, us"},
      {"size-kb", positive(), "32", "mean request size, KB"},
      {"count", integer(1), "6000", "requests per stream"},
      {"seed", integer(), "7", "trace seed"}},
     {},
     cmd_sweep},
    {"run", "run a scenario manifest (src-scenario-v1 JSON)",
     {{"model", kInput, "", "pre-fitted TPM; overrides the manifest's src.tpm source"},
      {"metrics-out", kOutput, "", "write a src-run-v1 report"},
      {"trace-out", kOutput, "", "record a Chrome trace_event JSON"},
      {"trace-capacity", integer(1), "65536", "trace ring-buffer size, events"},
      {"lanes", integer(), "", "override the manifest's lane count"},
      {"dump", kSwitch, "", "print the parsed manifest as canonical JSON; do not run"},
      {"lenient", kSwitch, "", "exit 0 instead of 3 on a health failure"}},
     {{"scenario.json", kInput, 1, 1, "the manifest to run"}},
     cmd_run,
     "Star and pod manifests print the same summary and write the same\n"
     "src-run-v1 report; a pod's rates are bytes over its end time and its\n"
     "final w is always 1.\n"
     "Lanes: a star runs as one shard at 0 and as hosts | hub shards at\n"
     "N >= 1, run by N worker threads with identical results at every N; a\n"
     "pod runs its partition's shards on N threads. Metrics and traces do\n"
     "not depend on N. Load a trace at https://ui.perfetto.dev.\n"
     "Exit codes: 0 clean run, 1 runtime failure, 2 usage error, 3 health\n"
     "failure (a controller guardrail tripped, requests exhausted their\n"
     "retries, or a `verify` invariant checker fired)."},
    {"scenarios", "list the built-in scenario presets / dump them as JSON",
     {{"all", kSwitch, "", "write every preset to --out-dir as <name>.json"},
      {"out-dir", kOutput, "", "directory for --all"}},
     {{"preset", kText, 0, 1, "dump this preset as JSON"}},
     cmd_scenarios},
    {"tpm", "train a throughput prediction model and inspect it",
     {{"ssd", choice(kSsds), "SSD-A", "SSD model to train on"},
      {"seed", integer(), "11", "training-grid seed"},
      {"save", kOutput, "", "write the fitted model here"}},
     {},
     cmd_tpm},
    {"trace-gen", "generate a CSV block trace (micro / vdi / cbs)",
     {{"out", required(kOutput), "", "CSV file to write (-o)"},
      {"preset", choice("micro|vdi|cbs"), "micro", "workload family"},
      {"count", integer(1), "5000", "requests per stream"},
      {"iat", positive(), "15", "mean inter-arrival time, us", "micro"},
      {"size-kb", positive(), "32", "mean request size, KB", "micro"},
      {"seed", integer(), "7", "trace seed"}},
     {},
     cmd_trace_gen,
     "",
     "--preset"},
    {"trace-stats", "summarize a CSV block trace",
     {{"trace", required(kInput), "", "CSV trace to read"}},
     {},
     cmd_trace_stats},
    {"replay", "replay a CSV trace against a simulated SSD",
     {{"trace", required(kInput), "", "CSV trace to replay"},
      {"ssd", choice(kSsds), "SSD-A", "SSD model"},
      {"weight", integer(1, 4294967295.0), "1", "SSQ weight ratio w"}},
     {},
     cmd_replay},
    {"chaos", "randomized fault campaigns with invariant verification",
     {{"base", kText, "", "base preset name or manifest file", "run"},
      {"trials", integer(1), "200", "number of trials", "run"},
      {"seed", integer(), "1", "campaign seed", "run"},
      {"jobs", integer(), "0", "worker threads (0 = hardware)", "run"},
      {"out-dir", kOutput, "", "write reproducers and the src-chaos-v1 report here", "run"},
      {"no-shrink", kSwitch, "", "do not shrink failing trials", "run"},
      {"shrink-budget", integer(1), "150", "max runs per shrink", "run"},
      {"link-downs", kSwitch, "", "also sample link-down faults", "run"},
      {"budget", integer(1), "150", "max runs", "shrink"},
      {"out", kOutput, "min.json", "minimal manifest to write (-o)", "shrink"},
      {"model", kInput, "", "pre-fitted TPM shared by every run"}},
     {{"command", choice("run|replay|shrink"), 1, 1, "what to do"},
      {"manifest.json", kInput, 0, 1, "replay/shrink: the manifest"}},
     cmd_chaos,
     "run samples a fault plan per trial with every invariant checker armed;\n"
     "replay runs a manifest twice and compares digests; shrink reduces a\n"
     "failing manifest to a minimal one that trips the same checker.\n"
     "Exit codes: 0 clean, 1 nondeterminism or nothing to shrink, 2 usage\n"
     "error, 3 invariant violations found.",
     "<command>"},
    {"benchcheck", "validate BENCH_*.json files against src-bench-v1",
     {{"baseline", kInput, "", "also gate section names, items and events against it"},
      {"tolerance", number(0.0), "0.1", "relative events tolerance for --baseline"}},
     {{"BENCH.json", kInput, 1, kMany, "bench-harness output"}},
     cmd_benchcheck},
    {"benchdiff", "per-section throughput delta between two BENCH_*.json",
     {{"tolerance", number(0.0), "0.15", "relative regression that fails"}},
     {{"OLD.json", kInput, 1, 1, "baseline measurement"},
      {"NEW.json", kInput, 1, 1, "new measurement"}},
     cmd_benchdiff},
    {"metricscheck", "validate srcctl run reports (src-run-v1)",
     {},
     {{"report.json", kInput, 1, kMany, "a `srcctl run --metrics-out` report"}},
     cmd_metricscheck},
    {"lint", "run the srclint determinism & invariant linter (R1-R9)",
     {{"root", kInput, "", "lint the tree under this directory"},
      {"rules", kText, "", "comma-separated rule ids (R1,..)"},
      {"format", choice("text|json|sarif"), "text", "report format"},
      {"baseline", kInput, "", "known findings to ignore"},
      {"write-baseline", kOutput, "", "write the current findings as a baseline"},
      {"sarif-out", kOutput, "", "also write SARIF here"},
      {"shared-inventory", kOutput, "", "write the R8 shared-state inventory"},
      {"fail-shared-under", kText, "", "fail on shared state under this prefix"},
      {"no-header-check", kSwitch, "", "skip the header self-containment check"},
      {"cxx", kText, "", "compiler for the header check"},
      {"jobs", integer(), "", "parallel header-check jobs"},
      {"list", kSwitch, "", "list the rules"}},
     {{"file", kInput, 0, kMany, "lint only these files"}},
     cmd_lint,
     "With no --root and no files, lints the enclosing repository against\n"
     "its committed baseline."},
};

int print_usage(std::FILE* out) {
  std::fprintf(out, "usage: srcctl <command> [--flags]\n\ncommands:\n");
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %-13s %s\n", command.name, command.summary);
  }
  std::fprintf(out, "\nrun `srcctl <command> --help` for per-command flags\n");
  return out == stdout ? 0 : 2;
}

/// `srcctl <command> --help`, generated from the command's declarations.
void print_help(const Command& command) {
  std::string usage = std::string("usage: srcctl ") + command.name;
  std::vector<std::pair<std::string, std::string>> rows;
  for (const Operand& operand : command.operands) {
    const std::string name = "<" + std::string(operand.name) + ">";
    const std::string slot = name + (operand.max > 1 ? "..." : "");
    usage += " " + (operand.min == 0 ? "[" + slot + "]" : slot);
    rows.emplace_back(name + " <" + describe(operand.type) + ">", operand.help);
  }
  usage += command.flags.empty() ? "" : " [flags]";
  const std::size_t operand_rows = rows.size();
  for (const Flag& flag : command.flags) {
    const std::string type = describe(flag.type);
    const std::string note = flag.type.required ? " (required)"
                             : flag.fallback.empty() ? ""
                                                     : " (default " + flag.fallback + ")";
    const std::string scope =
        *flag.scope == '\0' ? "" : "[" + scope_text(command, flag) + "] ";
    rows.emplace_back("--" + flag.name + (type.empty() ? "" : " <" + type + ">"),
                      scope + flag.help + note);
  }
  std::size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  std::printf("%s\n\n%s\n", usage.c_str(), command.summary);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || i == operand_rows) {
      std::printf("\n%s:\n", i < operand_rows ? "operands" : "flags");
    }
    std::printf("  %-*s  %s\n", static_cast<int>(width), rows[i].first.c_str(),
                rows[i].second.c_str());
  }
  if (*command.notes != '\0') std::printf("\n%s\n", command.notes);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  if (name.empty() || name == "help" || name == "--help") {
    return print_usage(name.empty() ? stderr : stdout);
  }
  const auto command = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) {
    std::fprintf(stderr, "srcctl: unknown command '%s'\n\n", name.c_str());
    return print_usage(stderr);
  }
  try {
    const Args args(*command, argc, argv);
    if (args.has("help")) {
      print_help(*command);
      return 0;
    }
    args.check();
    return command->handler(args);
  } catch (const UsageError& err) {
    if (err.subject.empty()) {
      std::fprintf(stderr, "srcctl %s: %s\n", name.c_str(), err.what());
    } else {
      std::fprintf(stderr, "srcctl: %s: %s\n", err.subject.c_str(), err.what());
    }
    return 2;
  } catch (const std::exception& err) {
    std::fflush(stdout);
    std::fprintf(stderr, "srcctl %s: %s\n", name.c_str(), err.what());
    return 1;
  }
}

// Property test over srcctl's command line. For every command `srcctl help`
// lists, seeded random argv that breaks one declared rule — an unknown flag,
// a malformed, out-of-range or missing value, a stray operand, a missing
// input file, a missing operand — must be rejected before any work starts:
// exit 2 (no signal), exactly one `srcctl` diagnostic line on stderr naming
// the culprit, nothing on stdout, and no file written.
//
// A flag scoped to one mode of its command ("[chaos run]" in the help) must
// be refused, the same way, under every other mode.
//
// Commands, flags, operands, their types and scopes are read from the
// generated `srcctl help` and `srcctl <command> --help` text, so a flag
// added to the command table is covered without touching this file. The binary path is
// injected by CMake as SRC_SRCCTL_BIN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/rng.hpp"

namespace fs = std::filesystem;

namespace {

struct RunResult {
  bool exited = false;  ///< false: killed by a signal (or never ran)
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string quote(const std::string& token) {
  std::string quoted = "'";
  for (const char c : token) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  return quoted + "'";
}

/// Run srcctl (exec'd, so the wait status is its own) with stdout captured
/// through a pipe and stderr through `err_path`.
RunResult run_srcctl(const std::vector<std::string>& args,
                     const fs::path& err_path) {
  std::string cmd = "exec " + quote(SRC_SRCCTL_BIN);
  for (const std::string& a : args) cmd += " " + quote(a);
  cmd += " 2>" + quote(err_path.string());
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.out.append(buffer, got);
  }
  const int status = pclose(pipe);
  result.exited = status != -1 && WIFEXITED(status);
  if (result.exited) result.exit_code = WEXITSTATUS(status);
  std::ifstream in(err_path);
  std::stringstream text;
  text << in.rdbuf();
  result.err = text.str();
  return result;
}

/// A declared flag or operand type as the generated help spells it:
/// "number > 0", "integer in [1, 8]", "input path", "output path",
/// "a|b|c", "text", or "" for a switch.
struct Type {
  std::string kind;  ///< number, integer, input, output, choice, text, switch
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  std::vector<std::string> choices;
};

Type parse_type(const std::string& text) {
  Type type;
  std::smatch m;
  if (text.empty()) {
    type.kind = "switch";
  } else if (std::regex_match(text, m, std::regex(R"((number|integer)(.*))"))) {
    type.kind = m[1];
    if (type.kind == "integer") type.lo = 0;
    const std::string range = m[2];
    std::smatch r;
    if (std::regex_match(range, r, std::regex(R"( in ([\[(])(\S+), (\S+)\])"))) {
      type.lo_open = r[1] == "(";
      type.lo = std::stod(r[2]);
      type.hi = std::stod(r[3]);
    } else if (std::regex_match(range, r, std::regex(R"( (>=|>) (\S+))"))) {
      type.lo_open = r[1] == ">";
      type.lo = std::stod(r[2]);
    }
  } else if (text == "input path" || text == "output path") {
    type.kind = text.substr(0, text.find(' '));
  } else if (text == "text") {
    type.kind = "text";
  } else {
    type.kind = "choice";
    std::stringstream in(text);
    std::string option;
    while (std::getline(in, option, '|')) type.choices.push_back(option);
  }
  return type;
}

struct FlagDecl {
  std::string name;
  Type type;
  bool required = false;
  /// The command line that reads it ("chaos run", "trace-gen --preset
  /// micro"); empty when every mode does.
  std::string scope;
};

struct OperandDecl {
  std::string name;
  Type type;
  bool optional = false;
  bool variadic = false;
};

struct CommandDecl {
  std::string name;
  std::vector<FlagDecl> flags;
  std::vector<OperandDecl> operands;
};

/// One bad command line and the prefix its one diagnostic line must have.
struct Case {
  std::vector<std::string> args;
  std::string culprit;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string number_text(const Type& type, double v) {
  return type.kind == "integer" ? std::to_string(static_cast<long long>(v))
                                : std::to_string(v);
}

class SrcctlArgvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("srcctl-argv-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "out");
    existing_ = (dir_ / "existing.json").string();
    std::ofstream(existing_) << "{}\n";
  }
  void TearDown() override { fs::remove_all(dir_); }

  RunResult run(const std::vector<std::string>& args) const {
    return run_srcctl(args, dir_ / "stderr.txt");
  }

  /// Every command `srcctl help` lists, with the declarations its
  /// generated `--help` shows.
  std::vector<CommandDecl> commands() const {
    const RunResult help = run({"help"});
    EXPECT_EQ(help.exit_code, 0);
    std::vector<CommandDecl> out;
    bool listing = false;
    for (const std::string& line : lines_of(help.out)) {
      std::smatch m;
      if (line == "commands:" || line.empty()) {
        listing = !line.empty();
      } else if (listing && std::regex_search(line, m, std::regex(R"(^  (\S+))"))) {
        out.push_back(declaration(m[1]));
      }
    }
    return out;
  }

  CommandDecl declaration(const std::string& name) const {
    CommandDecl command{name, {}, {}};
    const RunResult help = run({name, "--help"});
    EXPECT_EQ(help.exit_code, 0) << name;
    std::map<std::string, Type> operand_types;
    std::string section;
    for (const std::string& line : lines_of(help.out)) {
      std::smatch m;
      if (line.rfind("usage: ", 0) == 0) {
        const std::regex slot(R"((\[?)<([^>]+)>(\.\.\.)?)");
        for (auto it = std::sregex_iterator(line.begin(), line.end(), slot);
             it != std::sregex_iterator(); ++it) {
          command.operands.push_back(
              {(*it)[2], {}, (*it)[1] == "[", (*it)[3] == "..."});
        }
      } else if (line == "operands:" || line == "flags:" || line.empty()) {
        section = line;
      } else if (section == "operands:" &&
                 std::regex_search(line, m, std::regex(R"(^  <([^>]+)> <(.*?)>(?:  |$))"))) {
        operand_types[m[1]] = parse_type(m[2]);
      } else if (section == "flags:" &&
                 std::regex_search(line, m,
                                   std::regex(R"(^  --(\S+)(?: <(.*?)>)?(?:  +(?:\[([^\]]+)\])?|$))"))) {
        command.flags.push_back({m[1], parse_type(m[2]),
                                 line.find("(required)") != std::string::npos,
                                 m[3]});
      }
    }
    for (OperandDecl& operand : command.operands) {
      EXPECT_EQ(operand_types.count(operand.name), 1u)
          << name << ": operand <" << operand.name << "> has no type line";
      operand.type = operand_types[operand.name];
    }
    return command;
  }

  /// A value the type accepts.
  std::string valid(const Type& type, src::common::Rng& rng) const {
    if (type.kind == "number" || type.kind == "integer") {
      const double lo = std::isfinite(type.lo) ? type.lo : 1.0;
      return number_text(type, std::min(lo + (type.lo_open ? 1.0 : 0.0), type.hi));
    }
    if (type.kind == "input") return existing_;
    if (type.kind == "output") {
      return (dir_ / "out" / ("o" + std::to_string(rng.uniform_index(1000)))).string();
    }
    if (type.kind == "choice") return type.choices[rng.uniform_index(type.choices.size())];
    return "x";
  }

  /// Values the type rejects: malformed, non-finite or out of range (none
  /// for text).
  std::vector<std::string> invalid(const Type& type) const {
    std::vector<std::string> values;
    if (type.kind == "number") values = {"abc", "1x", "nan", "inf", "1e999", "0x"};
    if (type.kind == "integer") values = {"-1", "2.5", "abc", "18446744073709551616"};
    if (type.kind == "number" || type.kind == "integer") {
      if (type.lo_open || (std::isfinite(type.lo) && type.lo >= 1)) {
        values.push_back(number_text(type, type.lo_open ? type.lo : type.lo - 1));
      }
      if (std::isfinite(type.hi)) values.push_back(number_text(type, type.hi + 1));
    }
    if (type.kind == "input") values = {(dir_ / "missing.json").string()};
    if (type.kind == "output") values = {(dir_ / "no-such-dir" / "x.json").string()};
    if (type.kind == "choice") values = {"not-a-choice", type.choices.front() + "x"};
    return values;
  }

  /// Valid flags: every required one and a random share of the others,
  /// leaving out `skip` (the flag under test).
  std::vector<std::string> filler(const CommandDecl& command,
                                  const std::string& skip,
                                  src::common::Rng& rng) const {
    std::vector<std::string> args;
    for (const FlagDecl& flag : command.flags) {
      if (flag.name == skip || (!flag.required && rng.uniform() < 0.6)) continue;
      args.push_back("--" + flag.name);
      if (flag.type.kind != "switch") args.push_back(valid(flag.type, rng));
    }
    return args;
  }

  /// `defect` spliced into valid flags at a random flag boundary, then
  /// valid required operands.
  std::vector<std::string> around(const CommandDecl& command,
                                  const std::string& skip,
                                  const std::vector<std::string>& defect,
                                  src::common::Rng& rng) const {
    std::vector<std::string> args = filler(command, skip, rng);
    std::vector<std::size_t> boundaries;
    for (std::size_t i = 0; i <= args.size(); ++i) {
      if (i == args.size() || args[i].rfind("--", 0) == 0) boundaries.push_back(i);
    }
    const std::size_t at = boundaries[rng.uniform_index(boundaries.size())];
    args.insert(args.begin() + static_cast<std::ptrdiff_t>(at), defect.begin(),
                defect.end());
    for (const OperandDecl& operand : command.operands) {
      if (!operand.optional) args.push_back(valid(operand.type, rng));
    }
    return args;
  }

  /// Seeded bad command lines for one command: unknown flags; malformed,
  /// out-of-range and missing values; switches given a value; missing
  /// input files; a stray and a missing operand.
  std::vector<Case> cases(const CommandDecl& command, src::common::Rng& rng) const {
    std::vector<Case> out;
    for (int trial = 0; trial < 3; ++trial) {
      std::string name = "zz";
      for (std::size_t i = 2 + rng.uniform_index(6); i > 0; --i) {
        name += static_cast<char>('a' + rng.uniform_index(26));
      }
      std::vector<std::string> defect{"--" + name};
      if (rng.uniform() < 0.5) defect.push_back("v");
      out.push_back({around(command, "", defect, rng),
                     "srcctl: --" + name + ": unknown flag for '" + command.name + "'"});
    }
    for (const FlagDecl& flag : command.flags) {
      const std::string culprit = "srcctl: --" + flag.name + ": expected ";
      if (flag.type.kind == "switch") {
        out.push_back({around(command, flag.name, {"--" + flag.name + "=1"}, rng), culprit});
        continue;
      }
      // No value: last on the line, or followed by another flag.
      std::vector<std::string> args = filler(command, flag.name, rng);
      const auto at = args.empty() || rng.uniform() < 0.5 ? args.end() : args.begin();
      args.insert(at, "--" + flag.name);
      out.push_back({args, culprit});
      for (const std::string& value : invalid(flag.type)) {
        const std::vector<std::string> defect =
            rng.uniform() < 0.5 ? std::vector<std::string>{"--" + flag.name, value}
                                : std::vector<std::string>{"--" + flag.name + "=" + value};
        out.push_back({around(command, flag.name, defect, rng), culprit});
      }
    }
    const std::vector<std::string> flags = filler(command, "", rng);
    std::vector<std::string> operands = flags;
    bool bounded = true;
    for (const OperandDecl& operand : command.operands) {
      if (operand.type.kind == "input") {
        std::vector<std::string> args = operands;
        args.push_back((dir_ / "missing-operand.json").string());
        out.push_back({args, "srcctl: <" + operand.name + ">: expected an existing path"});
      }
      operands.push_back(valid(operand.type, rng));
      bounded = bounded && !operand.variadic;
    }
    const std::string self = "srcctl " + command.name + ": ";
    if (bounded) {
      operands.push_back("stray");
      out.push_back({operands, self + "unexpected argument 'stray'"});
    }
    if (!command.operands.empty() && !command.operands.front().optional) {
      out.push_back({flags, self + "missing <" + command.operands.front().name + ">"});
    }
    return out;
  }

  /// For each scoped flag and each mode that does not read it, a valid
  /// command line in that mode: the required flags, the mode selector (a
  /// flag or an operand), the flag under test, and every operand.
  std::vector<Case> wrong_mode_cases(const CommandDecl& command,
                                     src::common::Rng& rng) const {
    std::vector<Case> out;
    for (const FlagDecl& scoped : command.flags) {
      if (scoped.scope.empty()) continue;
      // "chaos run" -> selector value "run"; "trace-gen --preset micro" ->
      // selector flag "preset", value "micro".
      std::stringstream words(scoped.scope);
      std::string name, selector, value;
      words >> name >> selector;
      if (!(words >> value)) std::swap(selector, value);
      EXPECT_EQ(name, command.name) << scoped.scope;
      const std::string flag = selector.empty() ? "" : selector.substr(2);
      const auto selects = [&](const Type& type) {
        return std::find(type.choices.begin(), type.choices.end(), value) !=
               type.choices.end();
      };
      std::vector<std::string> modes;
      for (const FlagDecl& f : command.flags) {
        if (f.name == flag) modes = f.type.choices;
      }
      for (const OperandDecl& operand : command.operands) {
        if (flag.empty() && selects(operand.type)) modes = operand.type.choices;
      }
      EXPECT_GT(modes.size(), 1u) << scoped.scope;
      for (const std::string& mode : modes) {
        if (mode == value) continue;
        std::vector<std::string> args;
        for (const FlagDecl& f : command.flags) {
          if (f.name == flag) {
            args.insert(args.end(), {"--" + f.name, mode});
          } else if (f.required) {
            args.insert(args.end(), {"--" + f.name, valid(f.type, rng)});
          }
        }
        args.push_back("--" + scoped.name);
        if (scoped.type.kind != "switch") args.push_back(valid(scoped.type, rng));
        for (const OperandDecl& operand : command.operands) {
          args.push_back(flag.empty() && selects(operand.type) ? mode
                                                               : valid(operand.type, rng));
        }
        out.push_back({args, "srcctl: --" + scoped.name + ": only '" +
                                 scoped.scope + "' reads it"});
      }
    }
    return out;
  }

  /// Every rejection property for one case.
  void expect_rejected(const std::string& command, const Case& bad) const {
    std::vector<std::string> argv{command};
    argv.insert(argv.end(), bad.args.begin(), bad.args.end());
    std::string shown = "srcctl";
    for (const std::string& a : argv) shown += " " + quote(a);
    SCOPED_TRACE(shown);
    const RunResult r = run(argv);
    EXPECT_TRUE(r.exited) << "terminated by a signal";
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_EQ(r.out, "") << "work started";
    const std::vector<std::string> err = lines_of(r.err);
    ASSERT_EQ(err.size(), 1u) << r.err;
    EXPECT_EQ(err.front().rfind(bad.culprit, 0), 0u) << err.front();
    EXPECT_TRUE(fs::is_empty(dir_ / "out")) << "an output file was written";
  }

  fs::path dir_;
  std::string existing_;
};

TEST_F(SrcctlArgvTest, HelpListsTwelveCommandsWithTypedFlags) {
  const std::vector<CommandDecl> all = commands();
  EXPECT_EQ(all.size(), 12u);
  // Spot-check that the generated help is read back faithfully.
  const auto flag = [&](const std::string& command, const std::string& name) {
    for (const CommandDecl& c : all) {
      for (const FlagDecl& f : c.flags) {
        if (c.name == command && f.name == name) return f;
      }
    }
    ADD_FAILURE() << command << " --" << name << " not found";
    return FlagDecl{};
  };
  const FlagDecl weight = flag("replay", "weight");
  EXPECT_EQ(weight.type.kind, "integer");
  EXPECT_EQ(weight.type.lo, 1.0);
  EXPECT_EQ(weight.type.hi, 4294967295.0);
  const FlagDecl iat = flag("sweep", "iat");
  EXPECT_EQ(iat.type.kind, "number");
  EXPECT_TRUE(iat.type.lo_open);
  EXPECT_EQ(iat.type.lo, 0.0);
  EXPECT_TRUE(flag("trace-gen", "out").required);
  EXPECT_EQ(flag("run", "trace-out").type.kind, "output");
  EXPECT_EQ(flag("run", "dump").type.kind, "switch");
  EXPECT_EQ(flag("tpm", "ssd").type.choices,
            (std::vector<std::string>{"SSD-A", "SSD-B", "SSD-C"}));
}

TEST_F(SrcctlArgvTest, EveryCommandRejectsBadArgvBeforeStartingWork) {
  src::common::Rng rng(0x5eed);
  std::size_t checked = 0;
  for (const CommandDecl& command : commands()) {
    for (const Case& bad : cases(command, rng)) {
      expect_rejected(command.name, bad);
      ++checked;
    }
  }
  EXPECT_GE(checked, 200u);
}

TEST_F(SrcctlArgvTest, ScopedFlagsAreRefusedUnderEveryOtherMode) {
  src::common::Rng rng(0x5c0e);
  std::map<std::string, std::size_t> scoped;
  for (const CommandDecl& command : commands()) {
    for (const Case& bad : wrong_mode_cases(command, rng)) {
      expect_rejected(command.name, bad);
      ++scoped[command.name];
    }
  }
  // chaos: 8 `run` flags and 2 `shrink` flags, two wrong modes each;
  // trace-gen: --iat and --size-kb under --preset vdi and cbs.
  EXPECT_EQ(scoped["chaos"], 20u);
  EXPECT_EQ(scoped["trace-gen"], 4u);
}

}  // namespace

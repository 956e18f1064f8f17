#include "rules.hpp"

#include <array>

namespace srclint {
namespace {

const std::unordered_set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// R1: banned wherever they appear (types / objects).
const std::unordered_set<std::string> kNondetTypes = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock"};

/// R1: banned when invoked as free functions.
const std::unordered_set<std::string> kNondetCalls = {
    "time", "clock", "gettimeofday", "clock_gettime", "timespec_get",
    "rand", "srand"};

/// Keywords that may directly precede a call expression; an identifier
/// before `time(` that is NOT one of these reads as a declaration
/// (`SimTime time(...)`) and is not flagged.
const std::unordered_set<std::string> kExprKeywords = {
    "return", "else", "do", "case", "goto", "co_return", "co_yield",
    "co_await", "throw"};

/// R3: member calls that mutate simulation state (scheduling, container
/// mutation, RNG consumption).
const std::unordered_set<std::string> kMutatingApis = {
    "schedule",     "schedule_at",   "schedule_in",  "schedule_series",
    "cancel",       "push_back",     "pop_front",    "pop_back",
    "emplace",      "emplace_back",  "insert",       "erase",
    "clear",        "reset",         "resize",       "fork",
    "next_u64",     "uniform",       "uniform_index", "exponential",
    "normal",       "lognormal_mean_scv", "bernoulli", "set_tracing",
    "advance",      "run",           "stop"};

const std::unordered_set<std::string> kMutatingPunct = {
    "=",  "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=", "<<=", ">>=", "++", "--"};

/// R4: RNG engine types that must never be default-constructed.
const std::unordered_set<std::string> kEngineTypes = {
    "Rng",          "mt19937",       "mt19937_64",   "minstd_rand",
    "minstd_rand0", "default_random_engine", "ranlux24", "ranlux48",
    "ranlux24_base", "ranlux48_base", "knuth_b"};

/// Suppression tag per rule id.
std::string rule_tag(const std::string& rule) {
  if (rule == "R1") return "nondet";
  if (rule == "R2") return "ordered";
  if (rule == "R3") return "obs";
  if (rule == "R4") return "seed";
  if (rule == "R6") return "units";
  if (rule == "R7") return "fp";
  if (rule == "R8") return "shared";
  if (rule == "R9") return "capture";
  return "header";
}

struct Ctx {
  const LexedFile& file;
  std::vector<Finding>& out;

  void report(const std::string& rule, int line, std::string message) const {
    if (file.suppressions.active(rule_tag(rule), line)) return;
    out.push_back({file.path, line, rule, std::move(message)});
  }
};

bool is_ident(const Token& t) { return t.kind == TokKind::kIdentifier; }
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool ident_text_is(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

/// Starting at the index of a `<` token, return the index one past its
/// matching `>` (treating `>>` as two closers), or `npos` on imbalance.
std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (toks[i].kind != TokKind::kPunct) continue;
    if (t == "<") depth += 1;
    else if (t == "<<") depth += 2;
    else if (t == ">") depth -= 1;
    else if (t == ">>") depth -= 2;
    else if (t == ";") return std::string::npos;  // gave up: not a template
    if (depth <= 0) return i + 1;
  }
  return std::string::npos;
}

/// Starting at the index of a `(` token, return the index of its matching
/// `)`, or `npos`.
std::size_t matching_paren(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    else if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Name declared right after a type (skipping cv/ref/ptr tokens); empty
/// when the next tokens do not form a declaration.
std::string declared_name(const std::vector<Token>& toks, std::size_t i) {
  while (i < toks.size() &&
         (is_punct(toks[i], "&") || is_punct(toks[i], "*") ||
          (is_ident(toks[i]) && toks[i].text == "const"))) {
    ++i;
  }
  if (i < toks.size() && is_ident(toks[i])) return toks[i].text;
  return {};
}

// ---------------------------------------------------------------------- R1

void run_r1(const Ctx& ctx) {
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& name = toks[i].text;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const Token* prev2 = i > 1 ? &toks[i - 2] : nullptr;

    // Member access is never the banned entity.
    if (prev && (is_punct(*prev, ".") || is_punct(*prev, "->"))) continue;
    // `ns::name` for a non-std namespace is someone else's symbol.
    if (prev && is_punct(*prev, "::") && prev2 && is_ident(*prev2) &&
        prev2->text != "std" && prev2->text != "chrono") {
      continue;
    }

    if (kNondetTypes.contains(name)) {
      ctx.report("R1", toks[i].line,
                 "nondeterminism source '" + name +
                     "' — simulation code must derive all randomness and "
                     "time from seeded Rng / sim clock");
      continue;
    }
    if (kNondetCalls.contains(name)) {
      const bool called = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
      if (!called) continue;
      // An identifier immediately before reads as a declaration
      // (`SimTime time(...)`) unless it is an expression keyword.
      if (prev && is_ident(*prev) && !kExprKeywords.contains(prev->text)) {
        continue;
      }
      if (prev && (is_punct(*prev, ">") || is_punct(*prev, "*") ||
                   is_punct(*prev, "&") || is_punct(*prev, "~"))) {
        continue;  // declarator / destructor context
      }
      ctx.report("R1", toks[i].line,
                 "call to nondeterministic '" + name +
                     "()' — use the simulator clock or a seeded Rng");
    }
  }
}

// ---------------------------------------------------------------------- R2

void run_r2(const Ctx& ctx,
            const std::unordered_set<std::string>& unordered_names) {
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression mentions an unordered container.
    if (is_ident(toks[i]) && toks[i].text == "for" && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      const std::size_t close = matching_paren(toks, i + 1);
      if (close == std::string::npos) continue;
      // Top-level `:` splits declaration from range expression.
      std::size_t colon = std::string::npos;
      int depth = 0;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (is_punct(toks[k], "(")) ++depth;
        else if (is_punct(toks[k], ")")) --depth;
        else if (depth == 0 && is_punct(toks[k], ":")) { colon = k; break; }
        else if (depth == 0 && is_punct(toks[k], ";")) break;  // classic for
      }
      if (colon == std::string::npos) continue;
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (is_ident(toks[k]) && unordered_names.contains(toks[k].text)) {
          ctx.report("R2", toks[i].line,
                     "iteration over unordered container '" + toks[k].text +
                         "' — hash-table order must not feed event or "
                         "arithmetic order (use std::map, a sorted "
                         "snapshot, or an insertion-order vector)");
          break;
        }
      }
      continue;
    }
    // Explicit iterator walk: `container.begin()`.
    if (is_ident(toks[i]) &&
        (toks[i].text == "begin" || toks[i].text == "cbegin" ||
         toks[i].text == "rbegin") &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(") && i >= 2 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        is_ident(toks[i - 2]) && unordered_names.contains(toks[i - 2].text)) {
      ctx.report("R2", toks[i].line,
                 "iterator over unordered container '" + toks[i - 2].text +
                     "' — hash-table order must not feed event or "
                     "arithmetic order");
    }
  }
}

// ---------------------------------------------------------------------- R3

void run_r3(const Ctx& ctx) {
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i]) || !toks[i].text.starts_with("SRC_OBS_")) continue;
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
    // The macro definition's parameter list is not an argument expression.
    if (i > 0 && is_ident(toks[i - 1]) && toks[i - 1].text == "define") continue;

    const std::size_t close = matching_paren(toks, i + 1);
    if (close == std::string::npos) continue;
    for (std::size_t k = i + 2; k < close; ++k) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct && kMutatingPunct.contains(t.text)) {
        ctx.report("R3", t.line,
                   "observability macro argument mutates state ('" + t.text +
                       "') — recording must be passive");
        continue;
      }
      if (is_ident(t) && kMutatingApis.contains(t.text) && k + 1 < close &&
          is_punct(toks[k + 1], "(") && k >= 1 &&
          (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->"))) {
        ctx.report("R3", t.line,
                   "observability macro argument calls mutating API '" +
                       t.text + "()' — recording must be passive");
      }
    }
  }
}

// ---------------------------------------------------------------------- R4

void run_r4(const Ctx& ctx) {
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i]) || !kEngineTypes.contains(toks[i].text)) continue;
    const std::string& type = toks[i].text;
    // `#include <...>` tokens and qualified names are handled naturally:
    // we only look at what FOLLOWS the type name.
    if (i + 1 >= toks.size()) continue;

    // `T()` / `T{}`: seedless temporary.
    if ((is_punct(toks[i + 1], "(") && i + 2 < toks.size() &&
         is_punct(toks[i + 2], ")")) ||
        (is_punct(toks[i + 1], "{") && i + 2 < toks.size() &&
         is_punct(toks[i + 2], "}"))) {
      // `Rng() = delete;` style declarations are not constructions.
      if (i + 3 < toks.size() && is_punct(toks[i + 3], "=")) continue;
      ctx.report("R4", toks[i].line,
                 "default-constructed RNG engine '" + type +
                     "' — thread an explicit seed");
      continue;
    }
    // `T name;` / `T name{};`: seedless variable or member. Not applied
    // to the repo's own Rng: it has no default constructor, so a member
    // declaration `Rng rng_;` is legal and forces seeding in the ctor
    // init list — only std engines silently default-seed.
    if (type != "Rng" && is_ident(toks[i + 1]) && i + 2 < toks.size()) {
      const std::size_t after = i + 2;
      const bool bare_semi = is_punct(toks[after], ";");
      const bool empty_brace = is_punct(toks[after], "{") &&
                               after + 1 < toks.size() &&
                               is_punct(toks[after + 1], "}");
      if (bare_semi || empty_brace) {
        ctx.report("R4", toks[i].line,
                   "default-constructed RNG engine '" + type + " " +
                       toks[i + 1].text + "' — thread an explicit seed");
      }
    }
  }
}

// ---------------------------------------------------------------------- R6

/// Recognized unit suffixes (longest first). The returned unit drops the
/// leading underscore: "ns", "us", "ms", "bytes_per_sec", "gbps", "mbps".
std::string unit_suffix(const std::string& name) {
  static constexpr std::string_view kSuffixes[] = {
      "_bytes_per_sec", "_gbps", "_mbps", "_ns", "_us", "_ms"};
  for (const std::string_view s : kSuffixes) {
    if (name.size() > s.size() && name.ends_with(s)) {
      return std::string(s.substr(1));
    }
  }
  return {};
}

/// Index of the `(` matching the `)` at `close`, scanning backward.
std::size_t matching_open_paren(const std::vector<Token>& toks,
                                std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(toks[i], ")")) ++depth;
    else if (is_punct(toks[i], "(") && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t matching_open_bracket(const std::vector<Token>& toks,
                                  std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(toks[i], "]")) ++depth;
    else if (is_punct(toks[i], "[") && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Unit of the operand ending just before `op_idx` (exclusive), walking a
/// postfix chain leftward: `a.b_us`, `f_ns(...)`, `xs_us[i]`. Empty when
/// the operand's unit cannot be named.
struct Operand {
  std::string unit;
  std::string name;  ///< the unit-carrying identifier, for the message
};

Operand left_operand(const std::vector<Token>& toks, std::size_t op_idx) {
  if (op_idx == 0) return {};
  std::size_t i = op_idx - 1;
  if (is_punct(toks[i], ")")) {
    // `f(...)` — the callee's suffix names the result's unit (`as_mbps()`).
    const std::size_t open = matching_open_paren(toks, i);
    if (open == std::string::npos || open == 0) return {};
    if (!is_ident(toks[open - 1])) return {};
    return {unit_suffix(toks[open - 1].text), toks[open - 1].text};
  }
  if (is_punct(toks[i], "]")) {
    const std::size_t open = matching_open_bracket(toks, i);
    if (open == std::string::npos || open == 0) return {};
    if (!is_ident(toks[open - 1])) return {};
    return {unit_suffix(toks[open - 1].text), toks[open - 1].text};
  }
  if (is_ident(toks[i])) {
    // A multiplicative neighbor converts the unit (`t_us * 1000` is no
    // longer microseconds), so the name stops naming the value's unit.
    if (i > 0 && (is_punct(toks[i - 1], "*") || is_punct(toks[i - 1], "/") ||
                  is_punct(toks[i - 1], "%"))) {
      return {};
    }
    return {unit_suffix(toks[i].text), toks[i].text};
  }
  return {};
}

Operand right_operand(const std::vector<Token>& toks, std::size_t op_idx) {
  std::size_t i = op_idx + 1;
  if (i >= toks.size() || !is_ident(toks[i])) return {};
  // Walk the member chain: the unit carrier is the last name.
  std::size_t last = i;
  while (last + 2 < toks.size() &&
         (is_punct(toks[last + 1], ".") || is_punct(toks[last + 1], "->")) &&
         is_ident(toks[last + 2])) {
    last += 2;
  }
  // `x_ns = t_us * 1000` converts explicitly — the product's unit is not
  // the named operand's unit, so don't claim a mismatch.
  if (last + 1 < toks.size() &&
      (is_punct(toks[last + 1], "*") || is_punct(toks[last + 1], "/") ||
       is_punct(toks[last + 1], "%"))) {
    return {};
  }
  return {unit_suffix(toks[last].text), toks[last].text};
}

void run_r6(const Ctx& ctx, const std::vector<Token>& toks) {
  static const std::unordered_set<std::string> kCheckedOps = {
      "+", "-", "+=", "-=", "=", "<", ">", "<=", ">=", "==", "!="};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct || !kCheckedOps.contains(toks[i].text)) {
      continue;
    }
    const Operand lhs = left_operand(toks, i);
    if (lhs.unit.empty()) continue;
    const Operand rhs = right_operand(toks, i);
    if (rhs.unit.empty() || lhs.unit == rhs.unit) continue;
    ctx.report("R6", toks[i].line,
               "unit mismatch: '" + lhs.name + "' (" + lhs.unit + ") " +
                   toks[i].text + " '" + rhs.name + "' (" + rhs.unit +
                   ") mixes units — convert explicitly before combining");
  }
}

// ---------------------------------------------------------------------- R7

bool is_float_literal(const Token& t) {
  if (t.kind != TokKind::kNumber) return false;
  const std::string& s = t.text;
  if (s.starts_with("0x") || s.starts_with("0X")) return false;
  return s.find('.') != std::string::npos ||
         s.find('e') != std::string::npos || s.find('E') != std::string::npos;
}

void run_r7(const Ctx& ctx, const std::vector<Token>& toks,
            const SymbolIndex& index) {
  // Float-typed names visible to this file: cross-TU members plus names
  // declared float in this file (locals, parameters, loop variables).
  std::unordered_set<std::string> floats = index.float_names;
  for (const std::string& name : collect_float_names(toks)) {
    floats.insert(name);
  }
  auto is_float_operand = [&](const Token& t) {
    return is_float_literal(t) || (is_ident(t) && floats.contains(t.text));
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // ==/!= on floating-point values.
    if (t.kind == TokKind::kPunct && (t.text == "==" || t.text == "!=")) {
      const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
      std::size_t r = i + 1;
      // Unary minus before a literal: `!= -1.0`.
      if (r < toks.size() && is_punct(toks[r], "-")) ++r;
      const Token* next = r < toks.size() ? &toks[r] : nullptr;
      if ((prev && is_float_operand(*prev)) ||
          (next && is_float_operand(*next))) {
        ctx.report("R7", t.line,
                   "'" + t.text +
                       "' on floating-point values — exact FP comparison is "
                       "representation-sensitive; compare with a tolerance "
                       "or justify with srclint:fp-ok(<reason>)");
      }
      continue;
    }

    if (!is_ident(t)) continue;

    // std::accumulate / std::reduce over floating-point values.
    if ((t.text == "accumulate" || t.text == "reduce") &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      const std::size_t close = matching_paren(toks, i + 1);
      if (close == std::string::npos) continue;
      bool floaty = false;
      for (std::size_t k = i + 2; k < close && !floaty; ++k) {
        floaty = is_float_operand(toks[k]) || ident_text_is(toks[k], "double") ||
                 ident_text_is(toks[k], "float");
      }
      if (floaty) {
        ctx.report("R7", t.line,
                   "std::" + t.text +
                       " over floating-point values — FP addition is not "
                       "associative, so the reduction order is observable; "
                       "write an explicit loop over a pinned order and "
                       "justify with srclint:fp-ok(<reason>)");
      }
      continue;
    }

    // Range-for body accumulating into a float: `for (... : xs) sum += x;`
    if (t.text == "for" && i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      const std::size_t close = matching_paren(toks, i + 1);
      if (close == std::string::npos) continue;
      // Top-level `:` inside the parens marks a range-for.
      bool range_for = false;
      int depth = 0;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (is_punct(toks[k], "(")) ++depth;
        else if (is_punct(toks[k], ")")) --depth;
        else if (depth == 0 && is_punct(toks[k], ";")) break;
        else if (depth == 0 && is_punct(toks[k], ":")) {
          range_for = true;
          break;
        }
      }
      if (!range_for || close + 1 >= toks.size()) continue;
      // Body: braced block or single statement.
      std::size_t body_begin = close + 1;
      std::size_t body_end;
      if (is_punct(toks[body_begin], "{")) {
        int braces = 0;
        body_end = body_begin;
        for (std::size_t k = body_begin; k < toks.size(); ++k) {
          if (is_punct(toks[k], "{")) ++braces;
          else if (is_punct(toks[k], "}") && --braces == 0) {
            body_end = k;
            break;
          }
        }
      } else {
        body_end = body_begin;
        while (body_end < toks.size() && !is_punct(toks[body_end], ";")) {
          ++body_end;
        }
      }
      for (std::size_t k = body_begin; k + 1 < body_end; ++k) {
        if (is_ident(toks[k]) && floats.contains(toks[k].text) &&
            toks[k + 1].kind == TokKind::kPunct &&
            (toks[k + 1].text == "+=" || toks[k + 1].text == "-=" ||
             toks[k + 1].text == "*=")) {
          ctx.report("R7", toks[k].line,
                     "order-sensitive floating-point reduction '" +
                         toks[k].text + " " + toks[k + 1].text +
                         "' inside a range-for — the iteration order feeds "
                         "the FP result; pin it and justify with "
                         "srclint:fp-ok(<reason>)");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------- R9

void run_r9(const Ctx& ctx, const std::vector<Token>& toks,
            const SymbolIndex& index) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i]) ||
        !index.scheduler_functions.contains(toks[i].text) ||
        !is_punct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t close = matching_paren(toks, i + 1);
    if (close == std::string::npos) continue;
    // Direct lambda arguments: a `[` at paren depth 1 that is not an
    // attribute (`[[`) or a subscript (previous token is an operand).
    int depth = 1;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (is_punct(toks[k], "(")) { ++depth; continue; }
      if (is_punct(toks[k], ")")) { --depth; continue; }
      if (depth != 1 || !is_punct(toks[k], "[")) continue;
      if (k + 1 < close && is_punct(toks[k + 1], "[")) { ++k; continue; }
      const Token& before = toks[k - 1];
      const bool subscript = before.kind == TokKind::kIdentifier ||
                             before.kind == TokKind::kNumber ||
                             is_punct(before, ")") || is_punct(before, "]");
      if (subscript) continue;
      const std::size_t cap_close = [&] {
        int d = 0;
        for (std::size_t m = k; m < close; ++m) {
          if (is_punct(toks[m], "[")) ++d;
          else if (is_punct(toks[m], "]") && --d == 0) return m;
        }
        return close;
      }();
      bool by_ref = false;
      bool raw_this = false;
      for (std::size_t m = k + 1; m < cap_close; ++m) {
        if (is_punct(toks[m], "&") || is_punct(toks[m], "&&")) by_ref = true;
        if (is_ident(toks[m]) && toks[m].text == "this" &&
            !(m > 0 && is_punct(toks[m - 1], "*"))) {
          raw_this = true;
        }
      }
      if (!by_ref && !raw_this) { k = cap_close; continue; }
      std::string what;
      if (by_ref && raw_this) what = "captures by reference and raw 'this'";
      else if (by_ref) what = "captures by reference";
      else what = "captures raw 'this'";
      ctx.report("R9", toks[k].line,
                 "lambda passed to scheduler '" + toks[i].text + "' " + what +
                     " — the callback runs later, from the event loop, and "
                     "may outlive the captured frame; capture by value or "
                     "justify the lifetime with srclint:capture-ok(<reason>)");
      k = cap_close;
    }
  }
}

}  // namespace

std::unordered_set<std::string> collect_unordered_names(
    const std::vector<LexedFile>& files) {
  // Pass A: type aliases of unordered containers (`using Flows =
  // std::unordered_map<...>;`).
  std::unordered_set<std::string> alias_types;
  for (const LexedFile& file : files) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i]) ||
          (toks[i].text != "using" && toks[i].text != "typedef")) {
        continue;
      }
      // `using X = ...unordered_map...;`
      if (toks[i].text == "using" && is_ident(toks[i + 1]) &&
          is_punct(toks[i + 2], "=")) {
        for (std::size_t k = i + 3;
             k < toks.size() && !is_punct(toks[k], ";"); ++k) {
          if (is_ident(toks[k]) && kUnorderedTypes.contains(toks[k].text)) {
            alias_types.insert(toks[i + 1].text);
            break;
          }
        }
      }
    }
  }

  // Pass B: variables/members declared with an unordered type or alias.
  // (Named `collected`, not `names`: this file is lexed by its own pass A/B,
  // and an unordered variable called `names` here would taint every
  // range-for over a `names()` accessor in the scanned tree.)
  std::unordered_set<std::string> collected;
  for (const LexedFile& file : files) {
    const auto& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!is_ident(toks[i])) continue;
      const bool direct = kUnorderedTypes.contains(toks[i].text);
      const bool via_alias = alias_types.contains(toks[i].text);
      if (!direct && !via_alias) continue;
      std::size_t after = i + 1;
      if (after < toks.size() && is_punct(toks[after], "<")) {
        after = skip_template_args(toks, after);
        if (after == std::string::npos) continue;
      } else if (direct) {
        continue;  // bare `unordered_map` without args: include line etc.
      }
      const std::string name = declared_name(toks, after);
      if (!name.empty()) collected.insert(name);
    }
  }
  return collected;
}

bool in_r2_scope_dir(const std::string& rel_path) {
  static constexpr const char* kScopes[] = {
      "src/sim/",    "src/net/",    "src/nvme/",     "src/ssd/",
      "src/core/",   "src/fabric/", "src/runner/",   "src/scenario/",
      "src/chaos/",  "src/verify/", "src/obs/",      "src/common/"};
  for (const char* scope : kScopes) {
    if (rel_path.starts_with(scope)) return true;
  }
  return false;
}

bool in_r8_scope_dir(const std::string& rel_path) {
  static constexpr const char* kScopes[] = {"src/sim/", "src/net/",
                                            "src/core/", "src/fabric/",
                                            "src/common/"};
  for (const char* scope : kScopes) {
    if (rel_path.starts_with(scope)) return true;
  }
  return false;
}

bool in_r9_scope_dir(const std::string& rel_path) {
  return rel_path.starts_with("src/");
}

void run_token_rules(const LexedFile& file, const RuleSet& rules,
                     const RuleScope& scope,
                     const std::unordered_set<std::string>& unordered_names,
                     const SymbolIndex& index, std::vector<Finding>& out) {
  Ctx ctx{file, out};
  if (rules.r1) run_r1(ctx);
  if (rules.r2 && scope.r2) run_r2(ctx, unordered_names);
  if (rules.r3) run_r3(ctx);
  if (rules.r4) run_r4(ctx);
  if (rules.r6 || (rules.r7 && scope.r7) || (rules.r9 && scope.r9)) {
    // The semantic rules work on a preprocessor-free stream so `#include`
    // and macro-definition lines never read as declarations or operands.
    const std::vector<Token> stripped = strip_preprocessor(file.tokens);
    if (rules.r6) run_r6(ctx, stripped);
    if (rules.r7 && scope.r7) run_r7(ctx, stripped, index);
    if (rules.r9 && scope.r9) run_r9(ctx, stripped, index);
  }
}

void run_shared_state_rule(const SymbolIndex& index, bool tree_mode,
                           std::vector<Finding>& out) {
  for (const SharedObject& obj : index.shared_objects) {
    if (obj.is_const || obj.annotated) continue;
    if (tree_mode && !in_r8_scope_dir(obj.path)) continue;
    out.push_back(
        {obj.path, obj.line, "R8",
         std::string("mutable ") + storage_name(obj.storage) + " state '" +
             obj.qualified +
             "' — hidden shared mutable state blocks per-worker event-lane "
             "sharding; make it per-instance, or annotate with "
             "srclint:shared-ok(<reason>) to add it to the inventory"});
  }
}

}  // namespace srclint

#include "index.hpp"

#include <algorithm>
#include <array>

namespace srclint {
namespace {

bool is_ident(const Token& t) { return t.kind == TokKind::kIdentifier; }
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool ident_is(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

const std::unordered_set<std::string> kTypeKeywords = {"class", "struct",
                                                      "union", "enum"};

/// Specifier flags recognized while parsing a declaration statement.
struct DeclFlags {
  bool is_static = false;
  bool is_thread_local = false;
  bool is_const = false;      // const / constexpr / constinit
  bool is_extern = false;
  bool is_inline = false;
};

/// Statements that start with (or contain, at top level) one of these are
/// never simple object declarations.
const std::unordered_set<std::string> kNotADecl = {
    "using",   "typedef",  "template", "friend",   "namespace",
    "operator", "static_assert", "return", "throw", "goto",
    "public",  "private",  "protected", "case",    "default",
    "if",      "else",     "for",      "while",    "do",
    "switch",  "break",    "continue", "new",      "delete",
    "asm",     "concept",  "requires", "co_return", "co_yield",
    "co_await"};

/// Starting at the index of a `<` token, return the index one past its
/// matching `>` (`>>` counts twice), or `npos` when it does not read as a
/// template argument list.
std::size_t skip_template(const std::vector<Token>& toks, std::size_t i,
                          std::size_t end) {
  int depth = 0;
  for (; i < end; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "<") depth += 1;
    else if (t == "<<") depth += 2;
    else if (t == ">") depth -= 1;
    else if (t == ">>") depth -= 2;
    else if (t == ";" || t == "{") return std::string::npos;
    if (depth <= 0) return i + 1;
  }
  return std::string::npos;
}

/// One scope frame. File scope behaves as a namespace frame.
struct Scope {
  enum Kind { kNamespace, kType, kFunction, kBlock } kind;
  std::string name;            ///< namespace / type / function name
  int entry_paren_depth = 0;   ///< paren depth when the `{` was seen
};

/// Walk `stmt` tokens [begin, end) at top level (parens, brackets and
/// template argument lists skipped), invoking `fn(index)` per token.
template <typename F>
void for_each_top_level(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end, F&& fn) {
  int paren = 0;
  int bracket = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") { ++paren; continue; }
      if (t.text == ")") { --paren; continue; }
      if (t.text == "[") { ++bracket; continue; }
      if (t.text == "]") { --bracket; continue; }
    }
    if (paren > 0 || bracket > 0) continue;
    // `ident <` reads as a template argument list; skip it so `>` inside
    // never looks like an operator and its contents never look top-level.
    if (is_ident(t) && i + 1 < end && is_punct(toks[i + 1], "<")) {
      const std::size_t after = skip_template(toks, i + 1, end);
      if (after != std::string::npos) {
        fn(i);
        i = after - 1;
        continue;
      }
    }
    fn(i);
  }
}

/// Parsed declaration result.
struct Decl {
  bool is_object = false;  ///< a variable (not a function / alias / ...)
  std::string name;
  std::string type_text;
  DeclFlags flags;
};

Decl parse_decl(const std::vector<Token>& toks, std::size_t begin,
                std::size_t end) {
  Decl out;
  if (end - begin < 2) return out;

  // Declarator region stops at a top-level `=` (initializer).
  std::size_t eq = end;
  bool rejected = false;
  for_each_top_level(toks, begin, end, [&](std::size_t i) {
    if (rejected || i >= eq) return;
    const Token& t = toks[i];
    if (is_punct(t, "=") && eq == end) {
      eq = i;
      return;
    }
    if (is_ident(t)) {
      if (kNotADecl.contains(t.text) || kTypeKeywords.contains(t.text)) {
        rejected = true;
        return;
      }
      if (t.text == "static") out.flags.is_static = true;
      else if (t.text == "thread_local") out.flags.is_thread_local = true;
      else if (t.text == "const" || t.text == "constexpr" ||
               t.text == "constinit") {
        out.flags.is_const = true;
      } else if (t.text == "extern") out.flags.is_extern = true;
      else if (t.text == "inline") out.flags.is_inline = true;
    }
  });
  if (rejected) return out;

  // The declared name is the last top-level identifier in the declarator
  // region that is not a specifier; the token after it decides whether
  // this is an object (`=`, `[`, end) or a function (`(`).
  static const std::unordered_set<std::string> kSpecifiers = {
      "static", "thread_local", "const", "constexpr", "constinit",
      "extern", "inline", "mutable", "volatile", "register", "unsigned",
      "signed", "long", "short", "auto"};
  std::size_t name_idx = std::string::npos;
  for_each_top_level(toks, begin, eq, [&](std::size_t i) {
    if (is_ident(toks[i]) && !kSpecifiers.contains(toks[i].text)) {
      name_idx = i;
    }
  });
  if (name_idx == std::string::npos) return out;
  // Reject if nothing but specifiers precedes the name (a bare identifier
  // statement, an enumerator, a label...).
  if (name_idx == begin) return out;

  // Token following the name at any level.
  const std::size_t after = name_idx + 1;
  if (after < eq) {
    if (is_punct(toks[after], "(")) return out;  // function declarator
    if (!is_punct(toks[after], "[")) return out;  // trailing junk: give up
  }
  if (eq == end && out.flags.is_extern) return out;  // defined elsewhere

  out.is_object = true;
  out.name = toks[name_idx].text;
  for (std::size_t i = begin; i < name_idx; ++i) {
    if (!out.type_text.empty()) out.type_text.push_back(' ');
    out.type_text += toks[i].text;
  }
  return out;
}

/// Name of the function being defined, given the statement tokens that
/// precede its `{`: the identifier before the first top-level `(`.
std::string function_name(const std::vector<Token>& toks, std::size_t begin,
                          std::size_t end) {
  int paren = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "(")) {
      if (paren == 0 && i > begin && is_ident(toks[i - 1])) {
        return toks[i - 1].text;
      }
      ++paren;
    } else if (is_punct(t, ")")) {
      --paren;
    }
  }
  return {};
}

bool contains_top_level_parens(const std::vector<Token>& toks,
                               std::size_t begin, std::size_t end) {
  bool found = false;
  int paren = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (is_punct(toks[i], "(")) {
      if (paren == 0) found = true;
      ++paren;
    } else if (is_punct(toks[i], ")")) {
      --paren;
    }
  }
  return found;
}

bool has_top_level_assign(const std::vector<Token>& toks, std::size_t begin,
                          std::size_t end) {
  bool found = false;
  for_each_top_level(toks, begin, end, [&](std::size_t i) {
    if (!is_punct(toks[i], "=")) return;
    if (i > begin && ident_is(toks[i - 1], "operator")) return;
    found = true;
  });
  return found;
}

bool has_top_level_ident(const std::vector<Token>& toks, std::size_t begin,
                         std::size_t end, std::string_view word) {
  bool found = false;
  for_each_top_level(toks, begin, end, [&](std::size_t i) {
    if (ident_is(toks[i], word)) found = true;
  });
  return found;
}

}  // namespace

std::vector<std::string> collect_float_names(const std::vector<Token>& toks) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i]) ||
        (toks[i].text != "double" && toks[i].text != "float")) {
      continue;
    }
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_punct(toks[j], "&&") || ident_is(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && is_ident(toks[j]) &&
        !(j + 1 < toks.size() && is_punct(toks[j + 1], "("))) {
      out.push_back(toks[j].text);
    }
  }
  return out;
}

const char* storage_name(Storage storage) {
  switch (storage) {
    case Storage::kNamespaceScope: return "namespace-scope";
    case Storage::kStaticMember: return "static-member";
    case Storage::kLocalStatic: return "local-static";
    case Storage::kThreadLocal: return "thread-local";
  }
  return "unknown";
}

std::vector<Token> strip_preprocessor(const std::vector<Token>& tokens) {
  std::vector<Token> out;
  out.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    const bool at_line_start = i == 0 || tokens[i - 1].line < t.line;
    if (is_punct(t, "#") && at_line_start) {
      // Consume the whole directive: every token through end of line,
      // following `\` splices onto continuation lines.
      int line = t.line;
      std::size_t j = i + 1;
      while (j < tokens.size()) {
        if (tokens[j].line == line) {
          ++j;
          continue;
        }
        if (is_punct(tokens[j - 1], "\\") && tokens[j - 1].line == line) {
          line = tokens[j].line;
          ++j;
          continue;
        }
        break;
      }
      i = j - 1;
      continue;
    }
    out.push_back(t);
  }
  return out;
}

SymbolIndex build_index(const std::vector<LexedFile>& files,
                        bool scope_by_dir) {
  SymbolIndex index;
  for (const std::string_view seed : kSchedulerSeeds) {
    index.scheduler_functions.emplace(seed);
  }

  for (const LexedFile& file : files) {
    const std::vector<Token> toks = strip_preprocessor(file.tokens);

    // Wrapper propagation draws only from simulation source: a bench or
    // test helper that happens to call schedule_at inside a function named
    // `run` must not turn every `pool.run(...)` call site into a scheduler
    // call. Direct calls to the seed names are still flagged everywhere.
    const bool seeds_wrappers =
        !scope_by_dir || (!file.path.starts_with("tests/") &&
                          !file.path.starts_with("bench/") &&
                          !file.path.starts_with("examples/"));

    // Pass A: floating-point declared names. Only trailing-underscore
    // names (the repo's member convention) are shared across TUs — a
    // header's `double alpha_;` makes `alpha_ == x` in any .cpp an R7
    // finding. Short local names (`total`, `x`) would collide between
    // unrelated files, so R7 re-collects those per file.
    for (const std::string& name : collect_float_names(toks)) {
      if (name.ends_with("_")) index.float_names.insert(name);
    }

    // Pass B: scope walk — shared-state objects and scheduler functions.
    std::vector<Scope> stack;
    auto current_kind = [&]() {
      return stack.empty() ? Scope::kNamespace : stack.back().kind;
    };
    auto entry_depth = [&]() {
      return stack.empty() ? 0 : stack.back().entry_paren_depth;
    };
    auto qualify = [&](const std::string& name) {
      std::string q;
      for (const Scope& s : stack) {
        if ((s.kind == Scope::kNamespace || s.kind == Scope::kType) &&
            !s.name.empty()) {
          q += s.name;
          q += "::";
        }
      }
      return q + name;
    };

    auto record = [&](const Decl& decl, int line, Storage storage) {
      SharedObject obj;
      obj.path = file.path;
      obj.line = line;
      obj.name = decl.name;
      obj.qualified = qualify(decl.name);
      obj.type_text = decl.type_text;
      obj.storage = storage;
      obj.is_const = decl.flags.is_const;
      obj.annotated = file.suppressions.active("shared", line);
      obj.reason = file.suppressions.reason("shared", line);
      index.shared_objects.push_back(std::move(obj));
    };

    auto process_stmt = [&](std::size_t begin, std::size_t end) {
      if (begin >= end) return;
      const Scope::Kind kind = current_kind();
      if (kind == Scope::kFunction || kind == Scope::kBlock) {
        // Only static-storage locals matter inside bodies.
        if (!ident_is(toks[begin], "static") &&
            !ident_is(toks[begin], "thread_local")) {
          return;
        }
      }
      const Decl decl = parse_decl(toks, begin, end);
      if (!decl.is_object) return;
      const int line = toks[begin].line;
      if (decl.flags.is_thread_local) {
        record(decl, line, Storage::kThreadLocal);
      } else if (kind == Scope::kNamespace) {
        record(decl, line, Storage::kNamespaceScope);
      } else if (kind == Scope::kType && decl.flags.is_static) {
        record(decl, line, Storage::kStaticMember);
      } else if ((kind == Scope::kFunction || kind == Scope::kBlock) &&
                 decl.flags.is_static) {
        record(decl, line, Storage::kLocalStatic);
      }
    };

    int paren_depth = 0;
    std::size_t stmt_start = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (is_punct(t, "(")) { ++paren_depth; continue; }
      if (is_punct(t, ")")) { --paren_depth; continue; }

      // Scheduler-call detection: attribute to the nearest enclosing
      // function definition (lambda bodies attribute to their function).
      if (seeds_wrappers && is_ident(t) && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(") &&
          std::find(kSchedulerSeeds.begin(), kSchedulerSeeds.end(), t.text) !=
              kSchedulerSeeds.end()) {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (it->kind == Scope::kFunction) {
            if (!it->name.empty()) {
              index.scheduler_functions.insert(it->name);
            }
            break;
          }
        }
      }

      if (is_punct(t, "{")) {
        Scope scope;
        scope.entry_paren_depth = paren_depth;
        const Scope::Kind outer = current_kind();
        if (outer == Scope::kFunction || outer == Scope::kBlock ||
            paren_depth > entry_depth()) {
          scope.kind = Scope::kBlock;
        } else if (has_top_level_assign(toks, stmt_start, i)) {
          scope.kind = Scope::kBlock;  // brace / lambda initializer
        } else if (has_top_level_ident(toks, stmt_start, i, "namespace")) {
          scope.kind = Scope::kNamespace;
          if (i > stmt_start && is_ident(toks[i - 1]) &&
              toks[i - 1].text != "namespace") {
            scope.name = toks[i - 1].text;
          }
        } else if ((has_top_level_ident(toks, stmt_start, i, "class") ||
                    has_top_level_ident(toks, stmt_start, i, "struct") ||
                    has_top_level_ident(toks, stmt_start, i, "union") ||
                    has_top_level_ident(toks, stmt_start, i, "enum")) &&
                   !(i > stmt_start && is_punct(toks[i - 1], ")"))) {
          scope.kind = Scope::kType;
          for_each_top_level(toks, stmt_start, i, [&](std::size_t k) {
            if (is_ident(toks[k]) && !kTypeKeywords.contains(toks[k].text) &&
                toks[k].text != "final" && scope.name.empty()) {
              scope.name = toks[k].text;
            }
          });
        } else if (contains_top_level_parens(toks, stmt_start, i)) {
          scope.kind = Scope::kFunction;
          scope.name = function_name(toks, stmt_start, i);
        } else {
          scope.kind = Scope::kBlock;
        }
        stack.push_back(std::move(scope));
        stmt_start = i + 1;
        continue;
      }
      if (is_punct(t, "}")) {
        if (!stack.empty()) stack.pop_back();
        stmt_start = i + 1;
        continue;
      }
      if (is_punct(t, ";") && paren_depth == entry_depth()) {
        process_stmt(stmt_start, i);
        stmt_start = i + 1;
        continue;
      }
      // Access specifiers end a "statement" at class scope.
      if (is_punct(t, ":") && current_kind() == Scope::kType &&
          i == stmt_start + 1 &&
          (ident_is(toks[stmt_start], "public") ||
           ident_is(toks[stmt_start], "private") ||
           ident_is(toks[stmt_start], "protected"))) {
        stmt_start = i + 1;
        continue;
      }
    }
  }
  return index;
}

}  // namespace srclint

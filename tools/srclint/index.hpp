// srclint phase 1: a lightweight cross-TU symbol index built from the
// lexer's token streams (no libclang). It drives the semantic rule
// families R6-R9:
//
//   - every namespace-scope / static-storage-duration object, with
//     mutability, storage class, and any `srclint:shared-ok(<reason>)`
//     annotation (R8's race-surface inventory);
//   - names declared anywhere with a floating-point type (R7 feeds
//     `==`/`!=` and reduction checks from it);
//   - functions whose bodies call the simulator scheduling API directly
//     (kSchedulerSeeds) — R9 treats a lambda passed to any of them as a
//     deferred callback, cross-TU.
//
// The scanner is token-level and heuristic by design: it tracks a scope
// stack (namespace / type / function / block), classifies every `{` from
// the statement tokens that precede it, and parses declarations at
// statement granularity. It is deliberately conservative — ambiguous
// declarators are skipped, never guessed at.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "lexer.hpp"

namespace srclint {

/// The event kernel's scheduling calls (`sim::Simulator::schedule_at`,
/// `schedule_in`, `schedule_series`) plus the generic `schedule`: each
/// defers the callables it is handed. They seed R9's scheduler set and are
/// among R3's mutating calls.
inline constexpr std::array<std::string_view, 4> kSchedulerSeeds = {
    "schedule", "schedule_at", "schedule_in", "schedule_series"};

/// Storage class of an indexed object (R8 inventory vocabulary).
enum class Storage {
  kNamespaceScope,  ///< namespace-scope variable (incl. `static` / `inline`)
  kStaticMember,    ///< `static` data member of a class/struct
  kLocalStatic,     ///< function-local `static`
  kThreadLocal,     ///< `thread_local` at any scope
};

const char* storage_name(Storage storage);

/// One object with static storage duration found anywhere in the tree.
struct SharedObject {
  std::string path;
  int line = 0;
  std::string name;        ///< declared identifier
  std::string qualified;   ///< enclosing namespaces/classes + name
  std::string type_text;   ///< declaration specifier tokens, joined
  Storage storage = Storage::kNamespaceScope;
  bool is_const = false;   ///< const / constexpr / constinit-const
  bool annotated = false;  ///< carries `srclint:shared-ok(...)`
  std::string reason;      ///< the annotation's justification, if any
};

/// The cross-TU index. Name sets are shared across files because members
/// are declared in headers and used in .cpp files.
struct SymbolIndex {
  /// Every static-storage object, const or not, annotated or not — the
  /// full inventory. R8 findings are the mutable, unannotated subset.
  std::vector<SharedObject> shared_objects;

  /// Identifiers declared with type `double` or `float` that follow the
  /// trailing-underscore member convention (`alpha_`). Cross-TU on
  /// purpose: members are declared in headers and compared in .cpp
  /// files. Non-member float names are collected per file by R7.
  std::unordered_set<std::string> float_names;

  /// Functions whose bodies call one of kSchedulerSeeds directly. Seeded
  /// with those names, so the set is usable as "calls that defer their
  /// lambda argument".
  std::unordered_set<std::string> scheduler_functions;
};

/// Build the index over every lexed file. Deterministic: objects are
/// recorded in (file, line) order of the input vector. With
/// `scope_by_dir` (tree mode), wrapper propagation into
/// `scheduler_functions` draws only from simulation source — helper
/// functions in tests/, bench/ and examples/ that happen to call the
/// scheduling API must not turn their (possibly generic) names into
/// scheduler calls tree-wide. Explicit-file mode indexes everything.
SymbolIndex build_index(const std::vector<LexedFile>& files,
                        bool scope_by_dir);

/// Tokens with preprocessor-directive lines removed (a `#` that starts a
/// line consumes the rest of that logical line, honoring `\` splices).
/// The analyzer works on this stream; R1-R4 keep the raw one.
std::vector<Token> strip_preprocessor(const std::vector<Token>& tokens);

/// Names declared with type `double`/`float` in `toks` (members, locals,
/// parameters, range-for variables). Used per-file by R7 and, filtered to
/// the `name_` member convention, cross-TU by the index.
std::vector<std::string> collect_float_names(const std::vector<Token>& toks);

}  // namespace srclint

// srclint rules R1-R4 (token-level) and R6-R9 (semantic, driven by the
// cross-TU SymbolIndex from index.hpp). R5 (header self-containment)
// lives in header_check.hpp because it shells out to the compiler.
//
// Rule catalog (suppression tag in brackets; suppress a site with
// `// srclint:<tag>-ok` on the same or preceding line, or a whole file
// with `// srclint:<tag>-ok-file`; a parenthesized justification —
// `srclint:shared-ok(reset between runs)` — is preserved in inventories):
//   R1 [nondet]  no nondeterminism sources: std::rand/srand/random_device,
//                system_clock/steady_clock/high_resolution_clock, and free
//                calls to time()/clock()/gettimeofday()/clock_gettime().
//   R2 [ordered] no iteration (range-for / .begin()) over unordered
//                containers in simulation code — hash-table layout must
//                never feed event or arithmetic order.
//   R3 [obs]     observability macro arguments must be passive: no
//                assignments, ++/--, or calls to known mutating APIs.
//   R4 [seed]    no default-constructed RNG engines — every generator
//                threads an explicit seed.
//   R6 [units]   identifiers carrying unit suffixes (_ns/_us/_ms,
//                _bytes_per_sec/_gbps/_mbps) must not be mixed across
//                units in additive arithmetic, comparisons, or
//                assignment.
//   R7 [fp]      FP determinism in sim-critical dirs: no ==/!= on
//                floating values, no std::accumulate over floats, no
//                range-for += reductions into a float without an
//                ordering justification.
//   R8 [shared]  every mutable object with static storage duration in
//                src/sim, src/net, src/core, src/fabric is a finding
//                unless annotated `srclint:shared-ok(<reason>)` — the
//                annotated inventory is what the pod-scale sharding
//                refactor consumes.
//   R9 [capture] lambdas passed to the scheduling API (schedule /
//                schedule_at / schedule_in / schedule_series, or any
//                indexed function that calls them directly) must not
//                capture by reference or capture raw `this` without a
//                `srclint:capture-ok(<lifetime justification>)`.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "index.hpp"
#include "lexer.hpp"

namespace srclint {

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;  ///< "R1".."R9"
  std::string message;
};

/// Which rules to run (default: all).
struct RuleSet {
  bool r1 = true, r2 = true, r3 = true, r4 = true, r5 = true;
  bool r6 = true, r7 = true, r8 = true, r9 = true;
  static RuleSet none() {
    RuleSet set;
    set.r1 = set.r2 = set.r3 = set.r4 = set.r5 = false;
    set.r6 = set.r7 = set.r8 = set.r9 = false;
    return set;
  }
};

/// Per-file scoping decisions (all true in explicit-file mode).
struct RuleScope {
  bool r2 = true;  ///< sim-critical dirs (see in_r2_scope_dir)
  bool r7 = true;  ///< same sim-critical set
  bool r8 = true;  ///< src/sim, src/net, src/core, src/fabric
  bool r9 = true;  ///< all of src/
};

/// Pass 1 of R2: names declared (directly or through a type alias) as
/// std::unordered_{map,set,multimap,multiset} anywhere in the scanned
/// tree. Shared across files because members are declared in headers but
/// iterated in .cpp files.
std::unordered_set<std::string> collect_unordered_names(
    const std::vector<LexedFile>& files);

/// Run R1-R4 and R6-R9 on one file. `index` is the phase-1 cross-TU
/// symbol index. Findings are appended in source order per rule.
void run_token_rules(const LexedFile& file, const RuleSet& rules,
                     const RuleScope& scope,
                     const std::unordered_set<std::string>& unordered_names,
                     const SymbolIndex& index, std::vector<Finding>& out);

/// True when `rel_path` is inside a directory where R2/R7 apply
/// (src/sim, src/net, src/nvme, src/ssd, src/core, src/fabric,
/// src/runner, src/scenario, src/chaos, src/verify, src/obs).
bool in_r2_scope_dir(const std::string& rel_path);

/// True when `rel_path` is inside the R8 shared-state scope
/// (src/sim, src/net, src/core, src/fabric).
bool in_r8_scope_dir(const std::string& rel_path);

/// True when `rel_path` is inside src/ (the R9 capture-safety scope).
bool in_r9_scope_dir(const std::string& rel_path);

/// R8 over the whole index: every mutable (non-const) static-storage
/// object that lacks a `srclint:shared-ok(<reason>)` annotation is a
/// finding. In tree mode the rule is scoped by in_r8_scope_dir; in
/// explicit-file mode every indexed object is checked. Suppression is
/// carried by the index (`SharedObject::annotated`), so findings here are
/// already post-suppression.
void run_shared_state_rule(const SymbolIndex& index, bool tree_mode,
                           std::vector<Finding>& out);

}  // namespace srclint

// sgnn_lint — project-specific static analysis for the spectral-GNN bench.
//
// The benchmark's tables are only trustworthy if every run that produced a
// cell had its errors checked, its RNG seeded, and its parallel kernels
// bit-deterministic (docs/PERFORMANCE.md). The compiler enforces part of
// that contract ([[nodiscard]] on Status/Result, -Werror=unused-result);
// this linter enforces the rest — the invariants that are about *where*
// code lives and *what it may call*, which no general-purpose tool knows:
//
//   discarded-status   a call to a Status/Result-returning function used as
//                      a bare expression statement (also catches paths the
//                      compiler never instantiates, e.g. uncalled templates
//                      and macro-heavy test code)
//   layering           include-DAG enforcement of
//                      tensor -> {sparse, graph} -> {core, nn} ->
//                      {models, eval} -> runtime -> {bench, tools, tests}
//   parallel-safety    inside a ParallelFor lambda: calls to non-reentrant
//                      APIs (journal append, Supervisor cell control,
//                      DeviceTracker state mutation, exit/abort) and
//                      declarations of mutable `static` locals
//   determinism        rand()/srand()/time()/std::random_device and
//                      std::chrono::*_clock::now() outside src/tensor/rng.*
//                      and the sanctioned timing helper (src/eval/table.h)
//   hygiene            in library code (src/): float ==/!=, std::cout, and
//                      exit()/abort() where only Status propagation is
//                      allowed
//   lock-discipline    access to a member annotated SGNN_GUARDED_BY(mu)
//                      (core/thread_annotations.h) outside a live RAII lock
//                      of mu; call-site checks for SGNN_REQUIRES /
//                      SGNN_EXCLUDES; double-acquisition of a held mutex
//   device-pairing     an Allocate-style acquisition (DeviceTracker
//                      OnAlloc/OnFree by default) that fails to reach its
//                      release on some path — leaks on early returns
//   status-flow        a declared Status/Result local consumed on one path
//                      but silently dropped on another (checked in `if`,
//                      ignored in `else`; overwritten before use; falls out
//                      of scope unread)
//   nolint-policy      every suppression must name a known rule and give a
//                      reason: `// NOLINT(rule): reason`
//
// Suppression: `// NOLINT(rule): reason` on the offending line, or
// `// NOLINTNEXTLINE(rule): reason` on the line above. A bare `NOLINT`, an
// unknown rule name, or a missing reason is itself a finding.
//
// The analysis is pass 1 (tree-wide symbol/annotation collection) plus
// pass 2 (per-file tokenization — comment-, string-, raw-string-, and
// preprocessor-aware — followed by token rules and, for the three dataflow
// families, a per-function structured control-flow walk; see
// tools/lint/dataflow.cc). Preprocessor directives are skipped wholesale,
// so macro *bodies* (SGNN_CHECK's std::abort) are exempt by construction;
// macro *call sites* are linted like any other statement. Rationale and
// the full rule catalogue live in docs/LINT.md.

#ifndef SGNN_TOOLS_LINT_LINT_H_
#define SGNN_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace sgnn::lint {

/// One rule violation at a source location.
struct Finding {
  std::string file;  ///< repo-relative path
  int line = 0;      ///< 1-based
  std::string rule;  ///< "discarded-status", "layering", ...
  std::string message;

  /// "file:line: [rule] message" — the format editors can jump on.
  std::string ToString() const;
};

/// Pass-1 index of the thread-safety and REQUIRES/EXCLUDES annotations
/// declared with the core/thread_annotations.h macros. Keyed by class name
/// ("" for free functions); methods keep only their last name component,
/// mirroring status_functions.
struct AnnotationIndex {
  /// class -> member -> mutex named in SGNN_GUARDED_BY.
  std::map<std::string, std::map<std::string, std::string>> guarded;
  /// class -> function -> mutexes from SGNN_REQUIRES.
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      requires_held;
  /// class -> function -> mutexes from SGNN_EXCLUDES.
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      excludes_held;

  bool empty() const {
    return guarded.empty() && requires_held.empty() && excludes_held.empty();
  }
  void MergeFrom(const AnnotationIndex& other);
};

/// Data-driven rule configuration. Default() encodes the project contract;
/// tests construct reduced configs around inline fixtures.
struct Config {
  /// Names of functions/methods whose return value is a Status or
  /// Result<T>. Seeded by Default() with the Status factory names and
  /// extended by CollectStatusFunctions over the tree (pass 1).
  std::set<std::string> status_functions;

  /// Layering DAG: layer name -> layers it may #include from. A layer
  /// missing from the map may include anything (bench/tools/tests top).
  std::map<std::string, std::set<std::string>> allowed_includes;

  /// Exact include targets exempt from the layering DAG: dependency-free
  /// pure-preprocessor headers (the thread-annotation macros) that every
  /// layer must be able to see without growing a back-edge.
  std::set<std::string> layering_exempt_targets;

  /// Non-reentrant callee names banned inside a ParallelFor lambda body.
  std::set<std::string> parallel_denylist;

  /// Repo-relative paths exempt from the determinism rule (the RNG module
  /// itself and the sanctioned wall-clock timing helper).
  std::set<std::string> determinism_allowlist;

  /// RAII lock class names the lock-discipline rule recognizes (last name
  /// component: "lock_guard", "unique_lock", "scoped_lock"). Tests extend
  /// this with helper RAII wrapper types.
  std::set<std::string> lock_types;

  /// Acquire -> release callee pairs for the device-pairing rule. The
  /// acquisition's first argument (token spelling) must match the
  /// release's, so OnAlloc(kAccel, n) pairs with OnFree(kAccel, m).
  std::map<std::string, std::string> resource_pairs;

  /// Classes that *own* a tracked resource RAII-style (register in the
  /// ctor or a helper, release in the dtor or a helper): their methods hold
  /// one side of a pair by design and are exempt from device-pairing.
  std::set<std::string> resource_owner_types;

  /// Thread-safety annotations collected tree-wide (pass 1). LintSource
  /// additionally folds in the current file's own annotations, so a
  /// self-contained fixture needs no separate pass.
  AnnotationIndex annotations;

  /// Valid rule names for NOLINT suppressions.
  std::set<std::string> known_rules;

  static Config Default();
};

/// Pass 1: scans `source` for declarations/definitions returning `Status`
/// or `Result<...>` and inserts their names into `out`.
void CollectStatusFunctions(const std::string& source,
                            std::set<std::string>* out);

/// Pass 1: scans `source` for SGNN_GUARDED_BY / SGNN_REQUIRES /
/// SGNN_EXCLUDES annotations and merges them into `out`.
void CollectAnnotations(const std::string& source, AnnotationIndex* out);

/// Pass 2: runs every rule over one file. `path` is the repo-relative path
/// (used for layer assignment and the src/-only rules).
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& source,
                                const Config& config);

/// Maps a repo-relative path to its layer name ("tensor", "bench", ...) or
/// "" when the file is outside the layered tree.
std::string LayerOf(const std::string& path);

}  // namespace sgnn::lint

#endif  // SGNN_TOOLS_LINT_LINT_H_

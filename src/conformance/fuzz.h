// Property-based graph fuzzing for the conformance oracle.
//
// Every trial is derived deterministically from a single uint64 seed:
// seed → graph family (ER / SBM / star / path / cycle / disconnected /
// self-loop / isolated-node / empty), topology, hop count, and features.
// A failing trial therefore reproduces from the seed alone
// (`sgnn_conformance --seed=N`), and the seed is journaled through
// runtime::Supervisor so an interrupted fuzz sweep resumes without
// re-running completed trials.
//
// Failures are shrunk with a delta-debugging loop (drop node ranges, drop
// edge chunks, lower the hop count) to a minimal case that still fails,
// printed via FormatCase.
//
// ρ is pinned to 0.5: the dense oracle U g(Λ) Uᵀ is only the propagation
// operator under symmetric normalization (docs/CONFORMANCE.md).

#ifndef SGNN_CONFORMANCE_FUZZ_H_
#define SGNN_CONFORMANCE_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/supervisor.h"
#include "sparse/adjacency.h"

namespace sgnn::conformance {

/// One generated conformance trial.
struct FuzzCase {
  uint64_t seed = 0;       ///< generator seed (repro key)
  std::string family;      ///< graph family name
  int64_t n = 0;           ///< node count
  sparse::EdgeList edges;  ///< undirected edge list
  bool self_loops = true;  ///< add self loops when building Ā
  int hops = 4;            ///< filter order K
  double rho = 0.5;        ///< normalization exponent (oracle requires 0.5)
};

/// Outcome of checking one case.
struct TrialResult {
  bool pass = true;
  std::string detail;  ///< failing filters / error text
};

/// Checks a case; returns pass/fail plus detail.
using CaseCheck = std::function<TrialResult(const FuzzCase&)>;

/// Aggregate over a fuzz sweep.
struct FuzzFailure {
  uint64_t seed = 0;
  std::string family;
  std::string detail;
  FuzzCase minimal;  ///< shrunk repro
};

struct FuzzReport {
  int trials = 0;
  int failures = 0;
  int resumed = 0;  ///< trials served from the journal
  std::vector<FuzzFailure> failing;
};

/// Knobs for a fuzz sweep.
struct FuzzOptions {
  uint64_t base_seed = 1;
  int trials = 50;
  /// Filter subset to check per trial; empty = all 27.
  std::vector<std::string> filters;
};

/// Deterministic seed → case mapping.
FuzzCase CaseFromSeed(uint64_t seed);

/// Human-readable dump: family, seed, n, hops, edge list.
std::string FormatCase(const FuzzCase& c);

/// Default property: every taxonomy filter (or `filters` subset) matches
/// the dense spectral oracle and the FD gradient check on this graph.
TrialResult CheckCaseAgainstOracle(const FuzzCase& c,
                                   const std::vector<std::string>& filters);

/// Greedily shrinks a failing case: node-range removal, edge-chunk removal,
/// then hop reduction, keeping any mutation for which `check` still fails.
/// Stops after 256 check invocations.
FuzzCase ShrinkCase(FuzzCase c, const CaseCheck& check);

/// Runs `options.trials` seeded trials and shrinks every failing case. When
/// `supervisor` is non-null each trial is journaled as a cell
/// (dataset=family, seed=trial seed) and already-terminal trials are skipped
/// on resume. `check` overrides the oracle property (used by the shrinker
/// self-test); pass nullptr for the default.
FuzzReport RunFuzz(const FuzzOptions& options, runtime::Supervisor* supervisor,
                   const CaseCheck& check = nullptr);

}  // namespace sgnn::conformance

#endif  // SGNN_CONFORMANCE_FUZZ_H_

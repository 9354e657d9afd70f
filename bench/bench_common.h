// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints the rows/series of one paper table or figure. Defaults
// are sized for a single-core box; set SPECTRAL_BENCH_FULL=1 to run the
// paper-scale grids (all datasets, all filters, 10 seeds).
//
// All benches run their cells through runtime::Supervisor (see
// runtime/supervisor.h): a crashed/diverged/OOM/timed-out cell becomes a
// marked table entry instead of killing the grid, and with
// SPECTRAL_JOURNAL_DIR set, a re-launched bench resumes from its JSONL
// journal instead of re-running completed cells. SPECTRAL_CELL_DEADLINE_MS
// applies a wall-clock deadline per cell; SPECTRAL_FAULT_PLAN injects
// scripted/probabilistic alloc and IO faults (runtime/fault_injection.h).

#ifndef SGNN_BENCH_BENCH_COMMON_H_
#define SGNN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/registry.h"
#include "graph/datasets.h"
#include "models/trainer.h"
#include "runtime/fault_injection.h"
#include "runtime/supervisor.h"
#include "tensor/device.h"

namespace sgnn::bench {

/// True when SPECTRAL_BENCH_FULL=1: paper-scale grids.
inline bool FullMode() {
  const char* env = std::getenv("SPECTRAL_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Number of random seeds per configuration.
inline int NumSeeds() { return FullMode() ? 10 : 1; }

/// Representative filter subset for quick runs (one per family flavour);
/// full mode uses all 27.
inline std::vector<std::string> QuickFilters() {
  return {"identity", "linear",    "impulse",  "ppr",      "monomial",
          "var_monomial", "chebyshev", "bernstein", "optbasis", "fagnn",
          "g2cn",     "figure"};
}

inline std::vector<std::string> BenchFilters() {
  return FullMode() ? filters::AllFilterNames() : QuickFilters();
}

/// Per-cell wall-clock deadline from SPECTRAL_CELL_DEADLINE_MS (0 = none).
inline double CellDeadlineMs() {
  const char* env = std::getenv("SPECTRAL_CELL_DEADLINE_MS");
  return env != nullptr ? std::atof(env) : 0.0;
}

/// Universal training configuration (paper Table 4): K=10 handled at filter
/// creation; epochs shortened outside full mode.
inline models::TrainConfig UniversalConfig(bool mini_batch) {
  models::TrainConfig c;
  c.epochs = FullMode() ? 200 : 35;
  c.eval_every = 5;
  c.hidden = 64;
  if (mini_batch) {
    c.phi0_layers = 0;
    c.phi1_layers = 2;
  }
  c.deadline_ms = CellDeadlineMs();
  return c;
}

/// Paper's universal hop count.
inline int UniversalHops() { return 10; }

/// Probes whether filter `name` constructs and supports the mini-batch
/// scheme. Construction failures are journaled through the supervisor as a
/// terminal SKIPPED cell under `key` (earlier versions dropped the Result's
/// error on the floor and the cell silently vanished from the grid); an
/// FB-only filter returns false without journaling — the caller simply has
/// no MB cell to run.
inline bool ProbeMiniBatch(runtime::Supervisor* sup,
                           const runtime::CellKey& key,
                           const std::string& name) {
  auto probe = filters::CreateFilter(name, 2, {}, 8);
  if (probe.ok()) return probe.value()->SupportsMiniBatch();
  if (sup->Find(key) == nullptr) {
    sup->Skip(key, runtime::CellStatus::kSkipped, probe.status().ToString());
  }
  return false;
}

/// The supervised runner for this bench binary: arms env-configured fault
/// injection once and opens the bench's journal (when SPECTRAL_JOURNAL_DIR
/// is set).
inline runtime::Supervisor MakeSupervisor(const std::string& bench_name) {
  runtime::FaultInjector::Global().ArmFromEnv();
  return runtime::Supervisor(bench_name);
}

/// Table cell for a failed/skipped cell: "(OOM)", "(TIMEOUT)", ...
inline std::string StatusCell(const runtime::CellRecord& record) {
  return std::string("(") + runtime::CellStatusName(record.status) + ")";
}

/// `value` when the cell succeeded, its status marker otherwise. The
/// " fb->mb" suffix surfaces the OOM degradation in tables.
inline std::string CellText(const runtime::CellRecord& record,
                            const std::string& value) {
  std::string text = record.ok() ? value : StatusCell(record);
  if (record.fell_back) text += " fb->mb";
  return text;
}

/// Banner with the reproduced table/figure id.
inline void Banner(const std::string& what, const std::string& note) {
  std::printf("\n=== %s ===\n%s\n", what.c_str(), note.c_str());
  std::printf("mode: %s\n\n", FullMode() ? "FULL (paper-scale)" : "quick");
}

}  // namespace sgnn::bench

#endif  // SGNN_BENCH_BENCH_COMMON_H_

// Supervised cell runner: every training/bench run becomes a recoverable
// unit of a grid.
//
// A Supervisor owns one bench's journal and runs cells under the trainer's
// run guards. A cell that fails — simulated OOM, NaN divergence, deadline
// timeout, bad filter name, IO error — is recorded with a terminal status
// instead of killing the grid, exactly as the paper's tables keep "(OOM)"
// rows. On a simulated accelerator OOM in a full-batch cell the supervisor
// can retry with the decoupled mini-batch scheme (the paper's own Section 6
// recommendation) and records the fallback. Re-running a bench with the
// same journal skips cells that already reached a terminal state, and the
// replayed records rebuild the same table.
//
// Journaling is enabled by SPECTRAL_JOURNAL_DIR (one <bench>.jsonl file per
// bench binary) or an explicit path; without either, supervision still
// applies but nothing persists.

#ifndef SGNN_RUNTIME_SUPERVISOR_H_
#define SGNN_RUNTIME_SUPERVISOR_H_

#include <functional>
#include <memory>
#include <string>

#include "core/registry.h"
#include "graph/datasets.h"
#include "models/trainer.h"
#include "runtime/journal.h"

namespace sgnn::runtime {

/// Per-cell policy knobs.
struct RunOptions {
  /// Retry a full-batch accelerator OOM with the mini-batch scheme when the
  /// filter supports it. Efficiency benches that *report* OOM cells turn
  /// this off; effectiveness grids keep it on to salvage a number.
  bool fallback_to_mb = true;
  /// Filter hyperparameters for RunTraining's filter construction.
  filters::FilterHyperParams hp;
  /// Hop count for RunTraining's filter construction.
  int hops = 10;
};

/// Invoked after a successful live run so benches can journal derived
/// scalars (CellRecord::extras) that resumed cells need for table rows.
using PostFn = std::function<void(const models::TrainResult&, CellRecord*)>;

/// The supervised body of a generic cell.
using RunFn = std::function<models::TrainResult()>;

class Supervisor {
 public:
  /// `journal_path` overrides the SPECTRAL_JOURNAL_DIR-derived default;
  /// pass exactly "" to use the environment (or disable when unset).
  explicit Supervisor(std::string bench_name, std::string journal_path = "");

  /// Completed-cell lookup, for skipping expensive setup (dataset
  /// generation) on resume. Returns nullptr when the cell must run.
  const CellRecord* Find(const CellKey& key) const;

  /// Runs `body` under supervision unless the journal already has a
  /// terminal record for `key`. The body's TrainResult flags decide the
  /// cell status; `post` (optional) fills record extras on live success.
  CellRecord Run(const CellKey& key, const RunFn& body,
                 const PostFn& post = nullptr);

  /// Full policy for the standard FB/MB grids: creates the filter named by
  /// `key.filter` (a bad name records SKIPPED instead of exiting), trains
  /// with the scheme in `key.scheme` ("fb" or "mb"), and applies the FB→MB
  /// OOM degradation when enabled. `post` as in Run.
  CellRecord RunTraining(const CellKey& key, const graph::Graph& g,
                         const graph::Splits& splits, graph::Metric metric,
                         const models::TrainConfig& config,
                         const RunOptions& options = {},
                         const PostFn& post = nullptr);

  /// Records a cell that never ran (bad filter name, unsupported scheme,
  /// ...) with a terminal status and the human-readable reason. Public so
  /// bench-side probes can journal *why* a cell is absent instead of
  /// silently dropping the error.
  CellRecord Skip(const CellKey& key, CellStatus status, std::string detail);

  /// Cells served from the journal instead of running, this process.
  size_t resumed_cells() const { return resumed_; }

  const std::string& bench_name() const { return bench_; }
  bool journaling() const { return journal_->enabled(); }

 private:
  static void FillFromResult(const models::TrainResult& result,
                             CellRecord* record);

  std::string bench_;
  std::unique_ptr<Journal> journal_;
  size_t resumed_ = 0;
};

/// "$SPECTRAL_JOURNAL_DIR/<bench>.jsonl", or "" when the env var is unset.
std::string DefaultJournalPath(const std::string& bench_name);

}  // namespace sgnn::runtime

#endif  // SGNN_RUNTIME_SUPERVISOR_H_

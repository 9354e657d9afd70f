// Decoupled spectral-GNN model and the two learning schemes (paper Fig. 1):
//   * Full-batch (FB): H = φ1(g(L̃) φ0(X)); graph, representations, and
//     weights all live on the accelerator; filtering re-runs every epoch.
//   * Mini-batch (MB): g's per-hop terms are precomputed once on the host;
//     only batch slices move to the accelerator; φ0 is empty and φ1 trains
//     on batches (paper Table 4 universal settings).
// Also the epoch loop (EpochLoop) every scheme in src/models runs, and
// the helpers the schemes share.

#ifndef SGNN_MODELS_TRAINER_H_
#define SGNN_MODELS_TRAINER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/filter.h"
#include "eval/table.h"
#include "graph/graph.h"
#include "nn/mlp.h"
#include "tensor/status.h"

namespace sgnn::models {

/// Training-run configuration (paper Table 4 universal + individual) of
/// every scheme. The epoch, eval and guard fields act in EpochLoop.
struct TrainConfig {
  int epochs = 120;
  int eval_every = 5;          ///< eval-round cadence (epochs)
  int hidden = 64;             ///< hidden width F
  int phi0_layers = 1;         ///< FB and GP default 1; MB must use 0
  int phi1_layers = 1;         ///< FB and GP default 1; MB default 2
  double dropout = 0.2;
  nn::AdamConfig weights_opt{5e-3, 0.9, 0.999, 1e-8, 5e-5};  ///< φ0/φ1
  nn::AdamConfig filter_opt{5e-2, 0.9, 0.999, 1e-8, 0.0};    ///< θ/γ
  /// MB, NAGphormer and link prediction (node pairs); below 1 is
  /// InvalidArgument.
  int batch_size = 4096;
  double rho = 0.5;            ///< graph normalization coefficient
  uint64_t seed = 1;
  /// Timing-only mode: no eval rounds (used by efficiency benches to keep
  /// runs short); epochs and the inference pass still execute fully.
  bool timing_only = false;
  /// Per-run wall-clock deadline in milliseconds (0 = none), counted from
  /// the start of set-up and checked after every epoch. When exceeded the
  /// run stops and is marked timed_out — the cell-level analogue of the
  /// paper's "(OOM)" table entries.
  double deadline_ms = 0.0;
  /// Capture the trained φ1, filter θ snapshot, and (MB) the precomputed
  /// terms in TrainResult::exported, the artifact the serving checkpoint
  /// (serve/checkpoint.h) persists. MB-only: serving needs the decoupled
  /// per-hop terms, which full-batch training never materializes.
  bool export_model = false;
  /// Sharded propagation (docs/SHARDING.md): when > 1, the propagation
  /// matrix is split into this many edge-cut shards and every hop runs
  /// shard-by-shard through a shard::ShardedSpmmOperator under per-shard
  /// accelerator sub-budgets of accel capacity / num_shards. FB keeps graph
  /// and representations host-resident and streams only shard working sets
  /// through the accelerator; MB precompute streams shard hops the same
  /// way. A shard over its sub-budget spills host-side instead of failing
  /// (StageStats::shard_spills). Results are bit-identical to unsharded at
  /// any shard count and thread count.
  int num_shards = 0;
};

/// Per-stage efficiency measurements (paper Tables 9/11, Figure 2).
struct StageStats {
  /// Host-side precompute: MB's per-hop terms, NAGphormer's hop features,
  /// GP's part build, link prediction's embeddings (0 for the others).
  double precompute_ms = 0.0;
  double train_ms_per_epoch = 0.0;
  double infer_ms = 0.0;
  size_t peak_ram_bytes = 0;     ///< host high-water mark
  size_t peak_accel_bytes = 0;   ///< simulated accelerator high-water mark
  /// Host threads the kernel layer used for this run (parallel::NumThreads()
  /// at run start); journaled so efficiency rows are comparable across
  /// machines and SGNN_NUM_THREADS settings.
  int threads = 1;
  /// Shard count propagation ran with (0 = unsharded).
  int shards = 0;
  /// Shard-hops whose working set exceeded the per-shard accelerator
  /// sub-budget and ran host-side (journaled in the cell's record).
  int64_t shard_spills = 0;
};

/// Trained-model artifact captured by TrainMiniBatch when
/// TrainConfig::export_model is set: everything the serving layer needs to
/// answer node queries without the graph — Precompute once, then cheap
/// per-node CombineTerms + φ1 at request time (paper Section 2.2).
struct ExportedModel {
  nn::Mlp phi1;                ///< trained transformation, weights on accel
  std::vector<Matrix> terms;   ///< host-resident per-hop representations
  std::vector<double> theta;   ///< filter θ/γ snapshot at export time
};

/// Outcome of one training run.
struct TrainResult {
  bool oom = false;              ///< simulated accelerator over capacity
  bool diverged = false;         ///< NaN/Inf loss or gradient detected
  bool timed_out = false;        ///< wall-clock deadline exceeded
  /// Non-OK when the run aborted (OOM / NumericalError / DeadlineExceeded /
  /// precompute failure); carries the human-readable reason.
  Status status;
  /// Best eval round's validation score (0 for link prediction, which has
  /// no eval rounds).
  double val_metric = 0.0;
  /// Test score at that round; link prediction's test ROC-AUC.
  double test_metric = 0.0;
  double final_train_loss = 0.0;
  StageStats stats;
  /// Test predictions (logits) at the best validation epoch, kept by FB,
  /// MB, GP and iterative; empty when timing_only.
  Matrix test_logits;
  /// Filter output embeddings at the final epoch (Figure 8 analysis); only
  /// captured when `capture_embeddings` was set in the call.
  Matrix embeddings;
  /// Serving artifact; null unless TrainConfig::export_model was set and
  /// the run completed without tripping a guard.
  std::shared_ptr<ExportedModel> exported;
};

/// Runs full-batch training of the decoupled model with the given filter.
/// The filter's parameters are reset from `config.seed` before training.
TrainResult TrainFullBatch(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric,
                           filters::SpectralFilter* filter,
                           const TrainConfig& config,
                           bool capture_embeddings = false);

/// Runs decoupled mini-batch training: host-side precompute, batched
/// training/inference on the accelerator. Requires
/// filter->SupportsMiniBatch(); returns oom=false by construction unless the
/// batch itself exceeds capacity.
TrainResult TrainMiniBatch(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric,
                           filters::SpectralFilter* filter,
                           const TrainConfig& config,
                           bool capture_embeddings = false);

/// Evaluates `metric` on the given rows of `logits`.
double EvaluateMetric(graph::Metric metric, const Matrix& logits,
                      const std::vector<int32_t>& labels,
                      const std::vector<int32_t>& rows);

// --- the one epoch loop ---------------------------------------------------

/// What one epoch of a scheme's optimizer steps hands EpochLoop.
struct EpochOutput {
  double loss = 0.0;  ///< the epoch's last training loss
  /// The last step's loss gradient, checked with the loss by the divergence
  /// guard (empty in the batched schemes).
  Matrix grad;
  /// A full-graph step's activations: live through the epoch's eval round,
  /// as a loop body's locals are, so the peak bytes count them there.
  std::vector<Matrix> live;
};

/// One scheme's parts, run by EpochLoop::Run.
struct EpochBodies {
  std::function<EpochOutput()> epoch;  ///< timed into train_ms_per_epoch
  /// One eval round: scores the validation rows, hands the score to
  /// EpochLoop::NewBest and, on true, fills the test fields. Null: none.
  std::function<void()> evaluate;
  std::function<void()> infer;   ///< timed into infer_ms
  /// Untimed, after infer and before the peaks are read. Null: none.
  std::function<void()> finish;
};

/// The epoch loop of every training scheme: the same guards and the same
/// things inside the timers for all (DESIGN.md, "Failure semantics").
/// Construct it before set-up (it clears the OOM latch, resets the peaks
/// and starts the deadline clock), then RunPrecompute if the scheme has a
/// host-side precompute, then Run.
class EpochLoop {
 public:
  /// `config` and `result` must outlive the loop.
  EpochLoop(const TrainConfig& config, TrainResult* result);
  EpochLoop(const EpochLoop&) = delete;
  EpochLoop& operator=(const EpochLoop&) = delete;

  /// Runs `body` timed into precompute_ms. A non-OK status lands in the
  /// result (an OOM also sets `oom`); the caller then returns it.
  void RunPrecompute(const std::function<Status()>& body);

  /// Records an eval round's validation score; true (and val_metric set)
  /// when it beats every earlier round.
  bool NewBest(double val);

  /// Runs config.epochs epochs. After each come the guards (latched
  /// accelerator OOM, non-finite loss or gradient, deadline), which end the
  /// run with their status, then an eval round every eval_every epochs and
  /// after the last (none when timing_only). Then infer and finish, skipped
  /// once a guard fired, and the StageStats fill.
  void Run(const EpochBodies& bodies);

 private:
  /// Sets oom and the OOM status when the accelerator OOM flag is latched.
  bool LatchOom();
  bool ShouldStop(double loss, const Matrix& grad);

  const TrainConfig& config_;
  TrainResult* result_;
  eval::Stopwatch clock_;  ///< the deadline clock
  double best_val_ = -1.0;
};

/// Every scheme's argument check, before any set-up: InvalidArgument naming
/// the field when hidden, epochs or eval_every is below 1, or rho lies
/// outside [0, 1] (NaN included).
Status CheckTrainConfig(const std::string& scheme, const TrainConfig& config);

/// The batched schemes' argument check, before any work: InvalidArgument
/// for a batch size below 1 (ForEachBatch would never advance) or an
/// FB-only `filter` (no per-hop terms to batch; null: no filter).
Status CheckBatching(const std::string& scheme, const TrainConfig& config,
                     const filters::SpectralFilter* filter);

/// Calls `fn` on consecutive `batch_size`-long slices of `items` (the last
/// may be shorter), in order.
template <typename T, typename Fn>
void ForEachBatch(const std::vector<T>& items, int64_t batch_size, Fn&& fn) {
  const auto size = static_cast<size_t>(batch_size);
  for (size_t start = 0; start < items.size(); start += size) {
    const size_t end = std::min(items.size(), start + size);
    fn(std::vector<T>(items.begin() + static_cast<std::ptrdiff_t>(start),
                      items.begin() + static_cast<std::ptrdiff_t>(end)));
  }
}

/// values[rows[i]] for each i.
std::vector<int32_t> Gather(const std::vector<int32_t>& values,
                            const std::vector<int32_t>& rows);

/// Copies row i of `src` to row rows[i] of `dst`, for each i.
void ScatterRows(const Matrix& src, const std::vector<int32_t>& rows,
                 Matrix* dst);

}  // namespace sgnn::models

#endif  // SGNN_MODELS_TRAINER_H_

// Decoupled spectral-GNN model and the two learning schemes (paper Fig. 1):
//   * Full-batch (FB): H = φ1(g(L̃) φ0(X)); graph, representations, and
//     weights all live on the accelerator; filtering re-runs every epoch.
//   * Mini-batch (MB): g's per-hop terms are precomputed once on the host;
//     only batch slices move to the accelerator; φ0 is empty and φ1 trains
//     on batches (paper Table 4 universal settings).

#ifndef SGNN_MODELS_TRAINER_H_
#define SGNN_MODELS_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/filter.h"
#include "graph/graph.h"
#include "nn/mlp.h"
#include "tensor/status.h"

namespace sgnn::models {

/// Training-run configuration (paper Table 4 universal + individual).
struct TrainConfig {
  int epochs = 120;
  int eval_every = 5;          ///< validation cadence (epochs)
  int patience = 1000;         ///< early-stop patience in eval rounds
  int hidden = 64;             ///< hidden width F
  int phi0_layers = 1;         ///< FB default 1; MB must use 0
  int phi1_layers = 1;         ///< FB default 1; MB default 2
  double dropout = 0.2;
  nn::AdamConfig weights_opt{5e-3, 0.9, 0.999, 1e-8, 5e-5};  ///< φ0/φ1
  nn::AdamConfig filter_opt{5e-2, 0.9, 0.999, 1e-8, 0.0};    ///< θ/γ
  int batch_size = 4096;       ///< MB only; below 1 is InvalidArgument
  double rho = 0.5;            ///< graph normalization coefficient
  uint64_t seed = 1;
  /// Timing-only mode: skips metric tracking niceties (used by efficiency
  /// benches to keep runs short); epochs still execute fully.
  bool timing_only = false;
  /// Per-run wall-clock deadline in milliseconds (0 = none). When exceeded
  /// the run stops and is marked timed_out — the cell-level analogue of the
  /// paper's "(OOM)" table entries.
  double deadline_ms = 0.0;
  /// NaN/Inf divergence detection on the training loss and loss gradient.
  bool divergence_check = true;
  /// Capture the trained φ1, filter θ snapshot, and (MB) the precomputed
  /// terms in TrainResult::exported, the artifact the serving checkpoint
  /// (serve/checkpoint.h) persists. MB-only: serving needs the decoupled
  /// per-hop terms, which full-batch training never materializes.
  bool export_model = false;
  /// Sharded propagation (docs/SHARDING.md): when > 1, the propagation
  /// matrix is split into this many edge-cut shards and every hop runs
  /// shard-by-shard through a shard::ShardedSpmmOperator under per-shard
  /// accelerator sub-budgets. FB keeps graph and representations
  /// host-resident and streams only shard working sets through the
  /// accelerator; MB precompute streams shard hops the same way. Results
  /// are bit-identical to unsharded at any shard count and thread count.
  int num_shards = 0;
  /// Per-shard accelerator budget in bytes (0 = accel capacity /
  /// num_shards). A shard whose working set exceeds it spills host-side
  /// instead of failing; spills are counted in StageStats::shard_spills.
  size_t shard_budget_bytes = 0;
};

/// Per-stage efficiency measurements (paper Tables 9/11, Figure 2).
struct StageStats {
  double precompute_ms = 0.0;    ///< MB graph precomputation (0 for FB)
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
  /// sub-budget and ran host-side (journaled as SHARD_SPILL cells).
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
  double val_metric = 0.0;
  double test_metric = 0.0;
  double final_train_loss = 0.0;
  StageStats stats;
  /// Test predictions (logits) at the best validation epoch; empty when
  /// timing_only.
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

}  // namespace sgnn::models

#endif  // SGNN_MODELS_TRAINER_H_

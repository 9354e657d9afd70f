#include "models/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "shard/plan.h"
#include "shard/spmm.h"
#include "tensor/parallel.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "nn/loss.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::models {

namespace {

using eval::Stopwatch;

/// Fisher-Yates shuffle of an index vector.
void Shuffle(std::vector<int32_t>* idx, Rng* rng) {
  for (size_t i = idx->size(); i > 1; --i) {
    const auto j = static_cast<size_t>(rng->UniformInt(i));
    std::swap((*idx)[i - 1], (*idx)[j]);
  }
}

/// Shared failure-path supervision for the training loops: the latched-OOM
/// check (one place instead of a copy per loop), NaN/Inf divergence
/// detection on loss and gradient, and the per-run wall-clock deadline.
/// A run that trips a guard stops instead of crashing; the TrainResult
/// carries which guard fired.
class RunGuard {
 public:
  RunGuard(const TrainConfig& config, TrainResult* result)
      : config_(config), result_(result) {}

  /// Epoch-granularity check; returns true when the run must stop. `grad`,
  /// when non-null, is the current loss gradient and is checked for
  /// non-finite entries along with the loss.
  bool ShouldStop(double loss, const Matrix* grad) {
    if (DeviceTracker::Global().accel_oom()) {
      result_->oom = true;
      result_->status =
          Status::OutOfMemory("simulated accelerator over capacity");
      return true;
    }
    if (config_.divergence_check &&
        (!std::isfinite(loss) ||
         (grad != nullptr && !ops::AllFinite(*grad)))) {
      result_->diverged = true;
      result_->status =
          Status::NumericalError("non-finite training loss or gradient");
      return true;
    }
    if (config_.deadline_ms > 0.0 &&
        clock_.ElapsedMs() > config_.deadline_ms) {
      result_->timed_out = true;
      result_->status = Status::DeadlineExceeded(
          "run exceeded deadline of " + std::to_string(config_.deadline_ms) +
          " ms");
      return true;
    }
    return false;
  }

  /// End-of-run check: latches an OOM that fired after the last per-epoch
  /// check (e.g. during the final evaluation pass).
  void Finalize() {
    if (DeviceTracker::Global().accel_oom() && !result_->oom) {
      result_->oom = true;
      result_->status =
          Status::OutOfMemory("simulated accelerator over capacity");
    }
  }

  /// True once any guard fired; aborted runs skip the inference pass.
  bool aborted() const { return !result_->status.ok(); }

 private:
  const TrainConfig& config_;
  TrainResult* result_;
  Stopwatch clock_;
};

}  // namespace

double EvaluateMetric(graph::Metric metric, const Matrix& logits,
                      const std::vector<int32_t>& labels,
                      const std::vector<int32_t>& rows) {
  if (metric == graph::Metric::kRocAuc) {
    return eval::RocAuc(logits, labels, rows);
  }
  return eval::Accuracy(logits, labels, rows);
}

TrainResult TrainFullBatch(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric,
                           filters::SpectralFilter* filter,
                           const TrainConfig& config,
                           bool capture_embeddings) {
  TrainResult result;
  result.stats.threads = parallel::NumThreads();
  auto& tracker = DeviceTracker::Global();
  tracker.ClearOom();
  tracker.ResetPeak();
  RunGuard guard(config, &result);

  Rng rng(config.seed * 0x2545F4914F6CDD1DULL + 7);
  // FB loads graph topology and attributes onto the accelerator. Sharded FB
  // is the spill form of the same scheme (docs/SHARDING.md): the graph no
  // longer fits one device, so topology and representations stay
  // host-resident and only per-shard propagation working sets visit the
  // accelerator, each under its sub-budget. The Device tag never changes
  // kernel arithmetic, so both forms produce identical bits.
  const bool is_sharded = config.num_shards > 1;
  const Device run_device = is_sharded ? Device::kHost : Device::kAccel;
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, config.rho);
  std::unique_ptr<shard::ShardPlan> plan;
  std::unique_ptr<shard::ShardedSpmmOperator> shard_op;
  if (is_sharded) {
    plan = std::make_unique<shard::ShardPlan>(shard::BuildShardPlan(
        norm, shard::PartitionOptions{config.num_shards, config.seed}));
    shard::ShardExecOptions shard_opts;
    shard_opts.compute_device = Device::kAccel;
    shard_opts.shard_budget_bytes = config.shard_budget_bytes;
    shard_op = std::make_unique<shard::ShardedSpmmOperator>(plan.get(),
                                                            shard_opts);
  } else {
    norm.MoveToDevice(Device::kAccel);
  }
  Matrix x = g.features.CloneTo(run_device);

  filter->ResetParameters(&rng);
  const int64_t fi = g.features.cols();
  const int64_t mid = config.phi0_layers > 0 ? config.hidden : fi;
  nn::Mlp phi0(config.phi0_layers, fi, config.hidden, config.hidden,
               config.dropout, run_device);
  nn::Mlp phi1(config.phi1_layers, mid, config.hidden, g.num_classes,
               config.dropout, run_device);
  phi0.Init(&rng);
  phi1.Init(&rng);

  filters::FilterContext ctx{&norm, run_device};
  ctx.op = shard_op.get();

  double best_val = -1.0;
  int64_t step = 0;
  double train_ms_total = 0.0;
  int stale_rounds = 0;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    Stopwatch sw;
    // Forward: φ0 -> g(L̃) -> φ1.
    Matrix h0, hf, logits;
    phi0.Forward(x, &h0, /*train=*/true, &rng);
    filter->Forward(ctx, h0, &hf, /*cache=*/true);
    phi1.Forward(hf, &logits, /*train=*/true, &rng);
    Matrix grad(logits.rows(), logits.cols(), run_device);
    result.final_train_loss =
        nn::SoftmaxCrossEntropy(logits, g.labels, splits.train, &grad);
    // Backward + optimizer step.
    phi0.ZeroGrad();
    phi1.ZeroGrad();
    filter->params().ZeroGrad();
    Matrix g_hf(hf.rows(), hf.cols(), run_device);
    phi1.Backward(grad, &g_hf);
    Matrix g_h0;
    filter->Backward(ctx, g_hf, config.phi0_layers > 0 ? &g_h0 : nullptr);
    if (config.phi0_layers > 0) phi0.Backward(g_h0, nullptr);
    ++step;
    phi0.AdamStep(config.weights_opt, step);
    phi1.AdamStep(config.weights_opt, step);
    filter->params().AdamStep(config.filter_opt, step);
    filter->ClearCache();
    train_ms_total += sw.ElapsedMs();

    if (guard.ShouldStop(result.final_train_loss, &grad)) break;

    const bool last = (epoch + 1 == config.epochs);
    if (!config.timing_only &&
        ((epoch + 1) % config.eval_every == 0 || last)) {
      Matrix eh0, ehf, elogits;
      phi0.ForwardInference(x, &eh0);
      filter->Forward(ctx, eh0, &ehf, /*cache=*/false);
      phi1.ForwardInference(ehf, &elogits);
      const double val = EvaluateMetric(metric, elogits, g.labels, splits.val);
      if (val > best_val) {
        best_val = val;
        result.val_metric = val;
        result.test_metric =
            EvaluateMetric(metric, elogits, g.labels, splits.test);
        result.test_logits = elogits.CloneTo(Device::kHost);
        stale_rounds = 0;
      } else if (++stale_rounds > config.patience) {
        break;
      }
      if (capture_embeddings && last) {
        result.embeddings = ehf.CloneTo(Device::kHost);
      }
    }
  }

  // Inference timing: one full eval-mode pass (skipped when a guard fired:
  // an aborted run must not keep allocating or burn past its deadline).
  if (!guard.aborted()) {
    Stopwatch sw;
    Matrix eh0, ehf, elogits;
    phi0.ForwardInference(x, &eh0);
    filter->Forward(ctx, eh0, &ehf, /*cache=*/false);
    phi1.ForwardInference(ehf, &elogits);
    result.stats.infer_ms = sw.ElapsedMs();
    if (capture_embeddings && result.embeddings.size() == 0) {
      result.embeddings = ehf.CloneTo(Device::kHost);
    }
  }
  result.stats.train_ms_per_epoch =
      train_ms_total / std::max(1, config.epochs);
  result.stats.peak_ram_bytes = tracker.peak_bytes(Device::kHost);
  result.stats.peak_accel_bytes = tracker.peak_bytes(Device::kAccel);
  if (is_sharded) {
    result.stats.shards = config.num_shards;
    result.stats.shard_spills = shard_op->stats().shard_spills;
  }
  guard.Finalize();
  return result;
}

TrainResult TrainMiniBatch(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric,
                           filters::SpectralFilter* filter,
                           const TrainConfig& config,
                           bool capture_embeddings) {
  TrainResult result;
  if (config.batch_size < 1) {
    result.status = Status::InvalidArgument(
        "TrainMiniBatch: batch_size " + std::to_string(config.batch_size) +
        " must be at least 1");
    return result;
  }
  if (!filter->SupportsMiniBatch()) {
    result.status = Status::InvalidArgument(
        "TrainMiniBatch: filter " + filter->name() +
        " does not support the MB scheme");
    return result;
  }
  result.stats.threads = parallel::NumThreads();
  auto& tracker = DeviceTracker::Global();
  tracker.ClearOom();
  tracker.ResetPeak();
  RunGuard guard(config, &result);

  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 13);
  filter->ResetParameters(&rng);

  // Stage 1: host-side precomputation (CPU in the paper). When sharded,
  // each propagation hop streams per-shard working sets through the
  // accelerator under sub-budgets instead of touching the whole graph at
  // once; terms still land host-resident and bit-identical.
  Stopwatch pre_sw;
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, config.rho);
  filters::FilterContext host_ctx{&norm, Device::kHost};
  std::unique_ptr<shard::ShardPlan> plan;
  std::unique_ptr<shard::ShardedSpmmOperator> shard_op;
  if (config.num_shards > 1) {
    plan = std::make_unique<shard::ShardPlan>(shard::BuildShardPlan(
        norm, shard::PartitionOptions{config.num_shards, config.seed}));
    shard::ShardExecOptions shard_opts;
    shard_opts.compute_device = Device::kAccel;
    shard_opts.shard_budget_bytes = config.shard_budget_bytes;
    shard_op = std::make_unique<shard::ShardedSpmmOperator>(plan.get(),
                                                            shard_opts);
    host_ctx.op = shard_op.get();
  }
  std::vector<Matrix> terms;
  const Status pre = filter->Precompute(host_ctx, g.features, &terms);
  if (!pre.ok()) {
    // A sharded hop can latch the accelerator OOM flag; report it as the
    // OOM guard would, so the Supervisor journals an (OOM) cell.
    result.oom = pre.code() == StatusCode::kOutOfMemory;
    result.status = pre;
    return result;
  }
  result.stats.precompute_ms = pre_sw.ElapsedMs();

  // Stage 2: batched training; only batch slices reach the accelerator.
  const int64_t fi = g.features.cols();
  nn::Mlp phi1(config.phi1_layers > 0 ? config.phi1_layers : 2, fi,
               config.hidden, g.num_classes, config.dropout, Device::kAccel);
  phi1.Init(&rng);

  auto gather_batch = [&](const std::vector<int32_t>& batch_rows,
                          std::vector<Matrix>* hold,
                          std::vector<const Matrix*>* ptrs) {
    hold->clear();
    ptrs->clear();
    hold->resize(terms.size());
    // Host-side row gathers are independent per term and may run
    // concurrently (DeviceTracker host accounting is mutex-protected and
    // the fault hook only counts accelerator allocations). The accelerator
    // transfers stay serial in term order so fault-injection replay sees
    // the same allocation sequence at any thread count.
    parallel::ParallelFor(
        0, static_cast<int64_t>(terms.size()), 1,
        [&](int64_t lo, int64_t hi) {
          for (int64_t t = lo; t < hi; ++t) {
            (*hold)[static_cast<size_t>(t)] =
                terms[static_cast<size_t>(t)].GatherRows(batch_rows);
          }
        });
    for (auto& m : *hold) m.MoveToDevice(Device::kAccel);
    for (const auto& m : *hold) ptrs->push_back(&m);
  };

  auto batch_logits = [&](const std::vector<int32_t>& rows, bool train,
                          Matrix* out) {
    std::vector<Matrix> hold;
    std::vector<const Matrix*> ptrs;
    gather_batch(rows, &hold, &ptrs);
    Matrix h;
    filter->CombineTerms(ptrs, &h, /*cache=*/train);
    if (train) {
      phi1.Forward(h, out, /*train=*/true, &rng);
    } else {
      phi1.ForwardInference(h, out);
    }
  };

  // Full-graph eval helper: fills logits rows for the listed nodes.
  Matrix all_logits(g.n, g.num_classes, Device::kHost);
  auto eval_rows = [&](const std::vector<int32_t>& rows) {
    for (size_t start = 0; start < rows.size();
         start += static_cast<size_t>(config.batch_size)) {
      const size_t end = std::min(
          rows.size(), start + static_cast<size_t>(config.batch_size));
      std::vector<int32_t> batch(rows.begin() + static_cast<int64_t>(start),
                                 rows.begin() + static_cast<int64_t>(end));
      Matrix logits;
      batch_logits(batch, /*train=*/false, &logits);
      for (size_t i = 0; i < batch.size(); ++i) {
        for (int64_t c = 0; c < g.num_classes; ++c) {
          all_logits.at(batch[i], c) = logits.at(static_cast<int64_t>(i), c);
        }
      }
    }
  };

  std::vector<int32_t> train_idx = splits.train;
  double train_ms_total = 0.0;
  double best_val = -1.0;
  int64_t step = 0;
  int stale_rounds = 0;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    Stopwatch sw;
    Shuffle(&train_idx, &rng);
    for (size_t start = 0; start < train_idx.size();
         start += static_cast<size_t>(config.batch_size)) {
      const size_t end = std::min(
          train_idx.size(), start + static_cast<size_t>(config.batch_size));
      std::vector<int32_t> batch(
          train_idx.begin() + static_cast<int64_t>(start),
          train_idx.begin() + static_cast<int64_t>(end));
      std::vector<Matrix> hold;
      std::vector<const Matrix*> ptrs;
      gather_batch(batch, &hold, &ptrs);
      Matrix h;
      filter->CombineTerms(ptrs, &h, /*cache=*/true);
      Matrix logits;
      phi1.Forward(h, &logits, /*train=*/true, &rng);
      std::vector<int32_t> batch_labels(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        batch_labels[i] = g.labels[static_cast<size_t>(batch[i])];
      }
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      result.final_train_loss =
          nn::SoftmaxCrossEntropy(logits, batch_labels, {}, &grad);
      phi1.ZeroGrad();
      filter->params().ZeroGrad();
      Matrix g_h(h.rows(), h.cols(), Device::kAccel);
      phi1.Backward(grad, &g_h);
      filter->BackwardCombine(ptrs, g_h);
      ++step;
      phi1.AdamStep(config.weights_opt, step);
      filter->params().AdamStep(config.filter_opt, step);
    }
    train_ms_total += sw.ElapsedMs();
    if (guard.ShouldStop(result.final_train_loss, nullptr)) break;
    const bool last = (epoch + 1 == config.epochs);
    if (!config.timing_only &&
        ((epoch + 1) % config.eval_every == 0 || last)) {
      eval_rows(splits.val);
      const double val =
          EvaluateMetric(metric, all_logits, g.labels, splits.val);
      if (val > best_val) {
        best_val = val;
        result.val_metric = val;
        eval_rows(splits.test);
        result.test_metric =
            EvaluateMetric(metric, all_logits, g.labels, splits.test);
        result.test_logits = all_logits;
        stale_rounds = 0;
      } else if (++stale_rounds > config.patience) {
        break;
      }
    }
  }

  // Inference timing over the test set (skipped when a guard fired).
  if (!guard.aborted()) {
    Stopwatch sw;
    eval_rows(splits.test);
    result.stats.infer_ms = sw.ElapsedMs();
  }
  if (capture_embeddings && !guard.aborted()) {
    std::vector<int32_t> all(static_cast<size_t>(g.n));
    std::iota(all.begin(), all.end(), 0);
    Matrix emb(g.n, fi, Device::kHost);
    for (size_t start = 0; start < all.size();
         start += static_cast<size_t>(config.batch_size)) {
      const size_t end =
          std::min(all.size(), start + static_cast<size_t>(config.batch_size));
      std::vector<int32_t> batch(all.begin() + static_cast<int64_t>(start),
                                 all.begin() + static_cast<int64_t>(end));
      std::vector<Matrix> hold;
      std::vector<const Matrix*> ptrs;
      gather_batch(batch, &hold, &ptrs);
      Matrix h;
      filter->CombineTerms(ptrs, &h, /*cache=*/false);
      for (size_t i = 0; i < batch.size(); ++i) {
        for (int64_t c = 0; c < fi; ++c) {
          emb.at(batch[i], c) = h.at(static_cast<int64_t>(i), c);
        }
      }
    }
    result.embeddings = std::move(emb);
  }
  if (config.export_model && !guard.aborted()) {
    // Serving artifact: the terms are moved out (training is over), φ1 and
    // θ are copied at their final values. A guard-tripped run exports
    // nothing — a checkpoint must never capture a diverged model.
    auto exported = std::make_shared<ExportedModel>();
    exported->phi1 = phi1;
    exported->terms = std::move(terms);
    exported->theta = filter->params().values();
    result.exported = std::move(exported);
  }
  result.stats.train_ms_per_epoch =
      train_ms_total / std::max(1, config.epochs);
  result.stats.peak_ram_bytes = tracker.peak_bytes(Device::kHost);
  result.stats.peak_accel_bytes = tracker.peak_bytes(Device::kAccel);
  if (config.num_shards > 1) {
    result.stats.shards = config.num_shards;
    result.stats.shard_spills = shard_op->stats().shard_spills;
  }
  guard.Finalize();
  return result;
}

}  // namespace sgnn::models

#include "models/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

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

// A sharded run's plan and the operator its hops apply (docs/SHARDING.md).
// The operator points into the plan, so the pair never copies or moves.
struct Sharding {
  explicit Sharding(shard::ShardPlan p) : plan(std::move(p)), op(&plan) {}
  Sharding(const Sharding&) = delete;
  Sharding& operator=(const Sharding&) = delete;

  shard::ShardPlan plan;
  shard::ShardedSpmmOperator op;
};

// Null unless config.num_shards > 1.
std::unique_ptr<Sharding> MakeSharding(const sparse::CsrMatrix& norm,
                                       const TrainConfig& config) {
  if (config.num_shards <= 1) return nullptr;
  return std::make_unique<Sharding>(shard::BuildShardPlan(
      norm, shard::PartitionOptions{config.num_shards, config.seed}));
}

// The shard fields of a finished run's stats; a no-op when unsharded.
void RecordSharding(const Sharding* sharding, StageStats* stats) {
  if (sharding == nullptr) return;
  stats->shards = sharding->plan.num_shards;
  stats->shard_spills = sharding->op.stats().shard_spills;
}

}  // namespace

EpochLoop::EpochLoop(const TrainConfig& config, TrainResult* result)
    : config_(config), result_(result) {
  result_->stats.threads = parallel::NumThreads();
  auto& tracker = DeviceTracker::Global();
  tracker.ClearOom();
  tracker.ResetPeak();
}

void EpochLoop::RunPrecompute(const std::function<Status()>& body) {
  eval::Stopwatch sw;
  const Status st = body();
  if (!st.ok()) {
    // A sharded hop can latch the accelerator OOM flag; report it as the
    // OOM guard would, so the Supervisor journals an (OOM) cell.
    result_->oom = st.code() == StatusCode::kOutOfMemory;
    result_->status = st;
    return;
  }
  result_->stats.precompute_ms = sw.ElapsedMs();
}

bool EpochLoop::NewBest(double val) {
  if (val <= best_val_) return false;
  best_val_ = val;
  result_->val_metric = val;
  return true;
}

bool EpochLoop::LatchOom() {
  if (!DeviceTracker::Global().accel_oom()) return false;
  result_->oom = true;
  result_->status = Status::OutOfMemory("simulated accelerator over capacity");
  return true;
}

bool EpochLoop::ShouldStop(double loss, const Matrix& grad) {
  if (LatchOom()) return true;
  if (!std::isfinite(loss) || !ops::AllFinite(grad)) {
    result_->diverged = true;
    result_->status =
        Status::NumericalError("non-finite training loss or gradient");
    return true;
  }
  if (config_.deadline_ms > 0.0 && clock_.ElapsedMs() > config_.deadline_ms) {
    result_->timed_out = true;
    result_->status = Status::DeadlineExceeded(
        "run exceeded deadline of " + std::to_string(config_.deadline_ms) +
        " ms");
    return true;
  }
  return false;
}

void EpochLoop::Run(const EpochBodies& bodies) {
  double train_ms_total = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    eval::Stopwatch sw;
    const EpochOutput out = bodies.epoch();
    train_ms_total += sw.ElapsedMs();
    result_->final_train_loss = out.loss;
    if (ShouldStop(out.loss, out.grad)) break;
    const bool round = (epoch + 1) % config_.eval_every == 0 ||
                       epoch + 1 == config_.epochs;
    if (!config_.timing_only && bodies.evaluate && round) bodies.evaluate();
  }

  // An aborted run must not keep allocating or burn past its deadline.
  if (result_->status.ok()) {
    eval::Stopwatch sw;
    bodies.infer();
    result_->stats.infer_ms = sw.ElapsedMs();
    if (bodies.finish) bodies.finish();
  }
  auto& tracker = DeviceTracker::Global();
  result_->stats.train_ms_per_epoch =
      train_ms_total / std::max(1, config_.epochs);
  result_->stats.peak_ram_bytes = tracker.peak_bytes(Device::kHost);
  result_->stats.peak_accel_bytes = tracker.peak_bytes(Device::kAccel);
  // An OOM may have fired after the last per-epoch check (in an eval round,
  // inference or `finish`).
  LatchOom();
}

Status CheckTrainConfig(const std::string& scheme, const TrainConfig& config) {
  const std::pair<const char*, int> counts[] = {
      {"hidden", config.hidden},
      {"epochs", config.epochs},
      {"eval_every", config.eval_every},
  };
  for (const auto& [field, value] : counts) {
    if (value < 1) {
      return Status::InvalidArgument(scheme + ": " + field + " " +
                                     std::to_string(value) +
                                     " must be at least 1");
    }
  }
  // Written so that NaN fails it too.
  if (!(config.rho >= 0.0 && config.rho <= 1.0)) {
    return Status::InvalidArgument(scheme + ": rho " +
                                   std::to_string(config.rho) +
                                   " must be in [0, 1]");
  }
  return Status::OK();
}

Status CheckBatching(const std::string& scheme, const TrainConfig& config,
                     const filters::SpectralFilter* filter) {
  if (config.batch_size < 1) {
    return Status::InvalidArgument(scheme + ": batch_size " +
                                   std::to_string(config.batch_size) +
                                   " must be at least 1");
  }
  if (filter != nullptr && !filter->SupportsMiniBatch()) {
    return Status::InvalidArgument(scheme + ": filter " + filter->name() +
                                   " has no per-hop terms to batch");
  }
  return Status::OK();
}

double EvaluateMetric(graph::Metric metric, const Matrix& logits,
                      const std::vector<int32_t>& labels,
                      const std::vector<int32_t>& rows) {
  if (metric == graph::Metric::kRocAuc) {
    return eval::RocAuc(logits, labels, rows);
  }
  return eval::Accuracy(logits, labels, rows);
}

std::vector<int32_t> Gather(const std::vector<int32_t>& values,
                            const std::vector<int32_t>& rows) {
  std::vector<int32_t> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = values[static_cast<size_t>(rows[i])];
  }
  return out;
}

void ScatterRows(const Matrix& src, const std::vector<int32_t>& rows,
                 Matrix* dst) {
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy_n(src.row(static_cast<int64_t>(i)), src.cols(),
                dst->row(rows[i]));
  }
}

TrainResult TrainFullBatch(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric,
                           filters::SpectralFilter* filter,
                           const TrainConfig& config,
                           bool capture_embeddings) {
  TrainResult result;
  result.status = CheckTrainConfig("TrainFullBatch", config);
  if (!result.status.ok()) return result;
  EpochLoop loop(config, &result);

  Rng rng(config.seed * 0x2545F4914F6CDD1DULL + 7);
  // FB loads graph topology and attributes onto the accelerator. Sharded FB
  // is the spill form of the same scheme (docs/SHARDING.md): the graph no
  // longer fits one device, so topology and representations stay
  // host-resident and only per-shard propagation working sets visit the
  // accelerator, each under its sub-budget. The Device tag never changes
  // kernel arithmetic, so both forms produce identical bits.
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, config.rho);
  const std::unique_ptr<Sharding> sharding = MakeSharding(norm, config);
  const Device run_device = sharding ? Device::kHost : Device::kAccel;
  if (!sharding) norm.MoveToDevice(Device::kAccel);
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
  if (sharding) ctx.op = &sharding->op;

  // One eval-mode pass: φ0 -> g(L̃) -> φ1.
  auto forward = [&](Matrix* h0, Matrix* hf, Matrix* logits) {
    phi0.ForwardInference(x, h0);
    filter->Forward(ctx, *h0, hf, /*cache=*/false);
    phi1.ForwardInference(*hf, logits);
  };

  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    // Forward: φ0 -> g(L̃) -> φ1.
    Matrix h0, hf, logits;
    phi0.Forward(x, &h0, /*train=*/true, &rng);
    filter->Forward(ctx, h0, &hf, /*cache=*/true);
    phi1.Forward(hf, &logits, /*train=*/true, &rng);
    EpochOutput out;
    out.grad = Matrix(logits.rows(), logits.cols(), run_device);
    out.loss =
        nn::SoftmaxCrossEntropy(logits, g.labels, splits.train, &out.grad);
    // Backward + optimizer step.
    phi0.ZeroGrad();
    phi1.ZeroGrad();
    filter->params().ZeroGrad();
    Matrix g_hf(hf.rows(), hf.cols(), run_device);
    phi1.Backward(out.grad, &g_hf);
    Matrix g_h0;
    filter->Backward(ctx, g_hf, config.phi0_layers > 0 ? &g_h0 : nullptr);
    if (config.phi0_layers > 0) phi0.Backward(g_h0, nullptr);
    ++step;
    phi0.AdamStep(config.weights_opt, step);
    phi1.AdamStep(config.weights_opt, step);
    filter->params().AdamStep(config.filter_opt, step);
    filter->ClearCache();
    for (Matrix* m : {&h0, &hf, &logits, &g_hf, &g_h0}) {
      out.live.push_back(std::move(*m));
    }
    return out;
  };
  bodies.evaluate = [&] {
    Matrix eh0, ehf, elogits;
    forward(&eh0, &ehf, &elogits);
    if (loop.NewBest(EvaluateMetric(metric, elogits, g.labels, splits.val))) {
      result.test_metric =
          EvaluateMetric(metric, elogits, g.labels, splits.test);
      result.test_logits = elogits.CloneTo(Device::kHost);
    }
    if (capture_embeddings && step == config.epochs) {
      result.embeddings = ehf.CloneTo(Device::kHost);
    }
  };
  bodies.infer = [&] {
    Matrix eh0, ehf, elogits;
    forward(&eh0, &ehf, &elogits);
    if (capture_embeddings && result.embeddings.size() == 0) {
      result.embeddings = ehf.CloneTo(Device::kHost);
    }
  };
  loop.Run(bodies);
  RecordSharding(sharding.get(), &result.stats);
  return result;
}

TrainResult TrainMiniBatch(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric,
                           filters::SpectralFilter* filter,
                           const TrainConfig& config,
                           bool capture_embeddings) {
  TrainResult result;
  result.status = CheckTrainConfig("TrainMiniBatch", config);
  if (result.status.ok()) {
    result.status = CheckBatching("TrainMiniBatch", config, filter);
  }
  if (!result.status.ok()) return result;
  EpochLoop loop(config, &result);

  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 13);
  filter->ResetParameters(&rng);

  // Stage 1: host-side precomputation (CPU in the paper). When sharded,
  // each propagation hop streams per-shard working sets through the
  // accelerator under sub-budgets instead of touching the whole graph at
  // once; terms still land host-resident and bit-identical.
  sparse::CsrMatrix norm;
  std::unique_ptr<Sharding> sharding;
  std::vector<Matrix> terms;
  loop.RunPrecompute([&] {
    norm = sparse::NormalizeAdjacency(g.adj, config.rho);
    sharding = MakeSharding(norm, config);
    filters::FilterContext host_ctx{&norm, Device::kHost};
    if (sharding) host_ctx.op = &sharding->op;
    return filter->Precompute(host_ctx, g.features, &terms);
  });
  if (!result.status.ok()) return result;

  // Stage 2: batched training; only batch slices reach the accelerator.
  const int64_t fi = g.features.cols();
  nn::Mlp phi1(config.phi1_layers > 0 ? config.phi1_layers : 2, fi,
               config.hidden, g.num_classes, config.dropout, Device::kAccel);
  phi1.Init(&rng);

  auto gather_batch = [&](const std::vector<int32_t>& batch_rows,
                          std::vector<Matrix>* hold,
                          std::vector<const Matrix*>* ptrs) {
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

  // Full-graph eval helper: fills logits rows for the listed nodes.
  Matrix all_logits(g.n, g.num_classes, Device::kHost);
  auto eval_rows = [&](const std::vector<int32_t>& rows) {
    ForEachBatch(rows, config.batch_size, [&](const auto& batch) {
      std::vector<Matrix> hold;
      std::vector<const Matrix*> ptrs;
      gather_batch(batch, &hold, &ptrs);
      Matrix h, logits;
      filter->CombineTerms(ptrs, &h, /*cache=*/false);
      phi1.ForwardInference(h, &logits);
      ScatterRows(logits, batch, &all_logits);
    });
  };

  std::vector<int32_t> train_idx = splits.train;
  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    EpochOutput out;
    Shuffle(&train_idx, &rng);
    ForEachBatch(train_idx, config.batch_size, [&](const auto& batch) {
      std::vector<Matrix> hold;
      std::vector<const Matrix*> ptrs;
      gather_batch(batch, &hold, &ptrs);
      Matrix h;
      filter->CombineTerms(ptrs, &h, /*cache=*/true);
      Matrix logits;
      phi1.Forward(h, &logits, /*train=*/true, &rng);
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      out.loss = nn::SoftmaxCrossEntropy(logits, Gather(g.labels, batch),
                                         {}, &grad);
      phi1.ZeroGrad();
      filter->params().ZeroGrad();
      Matrix g_h(h.rows(), h.cols(), Device::kAccel);
      phi1.Backward(grad, &g_h);
      filter->BackwardCombine(ptrs, g_h);
      ++step;
      phi1.AdamStep(config.weights_opt, step);
      filter->params().AdamStep(config.filter_opt, step);
    });
    return out;
  };
  bodies.evaluate = [&] {
    eval_rows(splits.val);
    if (loop.NewBest(
            EvaluateMetric(metric, all_logits, g.labels, splits.val))) {
      eval_rows(splits.test);
      result.test_metric =
          EvaluateMetric(metric, all_logits, g.labels, splits.test);
      result.test_logits = all_logits;
    }
  };
  // Inference timing over the test set.
  bodies.infer = [&] { eval_rows(splits.test); };
  bodies.finish = [&] {
    if (capture_embeddings) {
      std::vector<int32_t> all(static_cast<size_t>(g.n));
      std::iota(all.begin(), all.end(), 0);
      Matrix emb(g.n, fi, Device::kHost);
      ForEachBatch(all, config.batch_size, [&](const auto& batch) {
        std::vector<Matrix> hold;
        std::vector<const Matrix*> ptrs;
        gather_batch(batch, &hold, &ptrs);
        Matrix h;
        filter->CombineTerms(ptrs, &h, /*cache=*/false);
        ScatterRows(h, batch, &emb);
      });
      result.embeddings = std::move(emb);
    }
    if (config.export_model) {
      // Serving artifact: the terms are moved out (training is over), φ1
      // and θ are copied at their final values. A guard-tripped run never
      // gets here: a checkpoint must never capture a diverged model.
      auto exported = std::make_shared<ExportedModel>();
      exported->phi1 = phi1;
      exported->terms = std::move(terms);
      exported->theta = filter->params().values();
      result.exported = std::move(exported);
    }
  };
  loop.Run(bodies);
  RecordSharding(sharding.get(), &result.stats);
  return result;
}

}  // namespace sgnn::models

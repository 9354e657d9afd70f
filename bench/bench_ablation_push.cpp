// Ablation: push-based approximate propagation vs exact K-hop SpMM for the
// PPR precompute (the AGP/SCARA-style acceleration the paper's pipeline
// incorporates). Sweeps the residual threshold ε and reports work done,
// approximation error, and downstream accuracy under MB training.

#include <cmath>

#include "bench/bench_common.h"
#include "eval/table.h"
#include "nn/mlp.h"
#include "nn/loss.h"
#include "sparse/adjacency.h"
#include "sparse/push.h"

int main() {
  using namespace sgnn;
  bench::Banner("Push ablation",
                "Approximate PPR precompute: ε vs edge-touches (work), "
                "max error against the exact series, and MB test accuracy "
                "using the approximate representation");

  const auto spec = graph::FindDataset(bench::FullMode() ? "pokec_sim"
                                                         : "arxiv_sim")
                        .value();
  graph::Graph g = graph::MakeDataset(spec, 1);
  graph::Splits splits = graph::RandomSplits(g.n, 1);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  std::printf("dataset %s: n=%lld m=%lld\n", spec.name.c_str(),
              static_cast<long long>(g.n),
              static_cast<long long>(g.num_edges()));

  // Exact PPR reference: a deep truncation (K = 40, tail mass < 1e-4) so
  // the error column isolates push error instead of truncation mismatch.
  filters::FilterHyperParams hp;
  auto exact_or = filters::CreateFilter("ppr", 40, hp, g.features.cols());
  if (!exact_or.ok()) {
    std::printf("cannot build exact PPR reference: %s\n",
                exact_or.status().ToString().c_str());
    return 1;
  }
  auto exact_filter = exact_or.MoveValue();
  filters::FilterContext ctx{&norm, Device::kHost};
  eval::Stopwatch exact_sw;
  Matrix exact;
  exact_filter->Forward(ctx, g.features, &exact, false);
  const double exact_ms = exact_sw.ElapsedMs();
  // Work baseline: the paper's standard K-hop computation.
  const double exact_work =
      static_cast<double>(norm.nnz()) * bench::UniversalHops();

  // MB training on a given precomputed representation.
  auto train_on = [&](const Matrix& rep) {
    Rng rng(17);
    nn::Mlp head(2, rep.cols(), 64, g.num_classes, 0.2, Device::kAccel);
    head.Init(&rng);
    nn::AdamConfig opt{5e-3, 0.9, 0.999, 1e-8, 5e-5};
    int64_t step = 0;
    for (int epoch = 0; epoch < (bench::FullMode() ? 60 : 25); ++epoch) {
      Matrix batch = rep.GatherRows(splits.train);
      batch.MoveToDevice(Device::kAccel);
      Matrix logits;
      head.Forward(batch, &logits, true, &rng);
      std::vector<int32_t> labels(splits.train.size());
      for (size_t i = 0; i < labels.size(); ++i) {
        labels[i] = g.labels[static_cast<size_t>(splits.train[i])];
      }
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      nn::SoftmaxCrossEntropy(logits, labels, {}, &grad);
      head.ZeroGrad();
      head.Backward(grad, nullptr);
      head.AdamStep(opt, ++step);
    }
    Matrix test = rep.GatherRows(splits.test);
    test.MoveToDevice(Device::kAccel);
    Matrix logits;
    head.Forward(test, &logits, false, nullptr);
    std::vector<int32_t> labels(splits.test.size());
    std::vector<int32_t> rows(splits.test.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = g.labels[static_cast<size_t>(splits.test[i])];
      rows[i] = static_cast<int32_t>(i);
    }
    return models::EvaluateMetric(spec.metric, logits, labels, rows);
  };

  runtime::Supervisor sup = bench::MakeSupervisor("ablation_push");

  eval::Table table({"Method", "eps", "Time ms", "Edge touches / exact",
                     "Max err", "Test"});
  {
    const auto rec = sup.Run(
        {spec.name, "ppr", "mb", 1, "exact"},
        [&] {
          models::TrainResult tr;
          tr.test_metric = train_on(exact);
          return tr;
        },
        [&](const models::TrainResult&, runtime::CellRecord* out) {
          out->extras.emplace_back("time_ms", exact_ms);
        });
    table.AddRow({"exact SpMM", "-",
                  eval::Fmt(rec.Extra("time_ms", exact_ms), 1), "1.00", "0",
                  bench::CellText(rec, eval::Fmt(rec.test_metric * 100, 1))});
  }
  for (const double eps : {1e-2, 1e-3, 1e-4, 1e-5}) {
    double push_ms = 0.0, max_err = 0.0, touch_ratio = 0.0;
    const auto rec = sup.Run(
        {spec.name, "ppr", "mb", 1, "eps=" + eval::Fmt(eps, 5)},
        [&] {
          models::TrainResult tr;
          sparse::PushConfig pcfg;
          pcfg.alpha = hp.alpha;
          pcfg.epsilon = eps;
          eval::Stopwatch sw;
          Matrix approx;
          const auto stats =
              sparse::ApproxPprPushMatrix(norm, pcfg, g.features, &approx);
          push_ms = sw.ElapsedMs();
          for (int64_t i = 0; i < approx.size(); ++i) {
            max_err = std::max(max_err, std::fabs(double(approx.data()[i]) -
                                                  exact.data()[i]));
          }
          touch_ratio = static_cast<double>(stats.edge_touches) /
                        (exact_work * g.features.cols());
          tr.test_metric = train_on(approx);
          return tr;
        },
        [&](const models::TrainResult&, runtime::CellRecord* out) {
          out->extras.emplace_back("time_ms", push_ms);
          out->extras.emplace_back("max_err", max_err);
          out->extras.emplace_back("touch_ratio", touch_ratio);
        });
    table.AddRow({"forward push", eval::Fmt(eps, 5),
                  eval::Fmt(rec.Extra("time_ms", 0.0), 1),
                  eval::Fmt(rec.Extra("touch_ratio", 0.0), 2),
                  eval::Fmt(rec.Extra("max_err", 0.0), 4),
                  bench::CellText(rec, eval::Fmt(rec.test_metric * 100, 1))});
    std::printf("[done] eps=%g\n", eps);
  }
  std::printf("\n");
  table.Print();

  // Where push shines (AGP/SCARA's use case): sparse per-node signals.
  // One-hot seeds touch a vanishing fraction of the K-hop dense work.
  std::printf("\nsparse-seed case (single-source PPR, eps=1e-4):\n");
  sparse::PushConfig seed_cfg;
  seed_cfg.alpha = hp.alpha;
  seed_cfg.epsilon = 1e-4;
  Rng rng(3);
  int64_t touches = 0;
  eval::Stopwatch seed_sw;
  const int kSeeds = 32;
  for (int s = 0; s < kSeeds; ++s) {
    std::vector<float> x(static_cast<size_t>(g.n), 0.0f);
    x[rng.UniformInt(static_cast<uint64_t>(g.n))] = 1.0f;
    std::vector<float> out;
    touches += sparse::ApproxPprPush(norm, seed_cfg, x, &out).edge_touches;
  }
  std::printf("  %d seeds: %.1f ms total, %.4f of dense K-hop work/seed\n",
              kSeeds, seed_sw.ElapsedMs(),
              static_cast<double>(touches) / kSeeds / exact_work);
  return 0;
}

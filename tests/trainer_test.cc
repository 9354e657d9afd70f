// Integration tests for the full-batch and mini-batch training schemes,
// the simulated-OOM machinery, baselines, link prediction, and regression.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/registry.h"
#include "eval/signals.h"
#include "graph/datasets.h"
#include "models/baselines.h"
#include "models/iterative.h"
#include "models/linkpred.h"
#include "models/partition.h"
#include "models/regression.h"
#include "models/trainer.h"

namespace sgnn::models {
namespace {

/// Small homophilous graph where graph filters should beat chance easily.
graph::Graph EasyGraph() {
  graph::GeneratorConfig c;
  c.n = 600;
  c.avg_degree = 8.0;
  c.num_classes = 4;
  c.homophily = 0.85;
  c.feature_dim = 16;
  c.noise = 2.0;
  c.seed = 3;
  return graph::GenerateSbm(c);
}

graph::Graph HeteroGraph() {
  graph::GeneratorConfig c;
  c.n = 600;
  c.avg_degree = 8.0;
  c.num_classes = 4;
  c.homophily = 0.1;
  c.feature_dim = 16;
  c.encoding = graph::SignalEncoding::kHighFrequency;
  c.noise = 1.0;
  c.seed = 4;
  return graph::GenerateSbm(c);
}

TrainConfig FastConfig() {
  TrainConfig c;
  c.epochs = 40;
  c.eval_every = 5;
  c.hidden = 32;
  c.batch_size = 256;
  return c;
}

TEST(FullBatch, LearnsAboveChance) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 8).MoveValue();
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(),
                                 FastConfig());
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.test_metric, 0.6);  // chance = 0.25
}

TEST(FullBatch, VariableFilterLearns) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("var_monomial", 8).MoveValue();
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(),
                                 FastConfig());
  EXPECT_GT(r.test_metric, 0.6);
}

TEST(FullBatch, HighPassBeatsLowPassUnderHeterophily) {
  graph::Graph g = HeteroGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto low = filters::CreateFilter("impulse", 8).MoveValue();
  auto adaptive = filters::CreateFilter("chebyshev", 8).MoveValue();
  TrainConfig c = FastConfig();
  TrainResult r_low =
      TrainFullBatch(g, s, graph::Metric::kAccuracy, low.get(), c);
  TrainResult r_var =
      TrainFullBatch(g, s, graph::Metric::kAccuracy, adaptive.get(), c);
  EXPECT_GT(r_var.test_metric, r_low.test_metric + 0.1);
}

TEST(FullBatch, ReportsStageStats) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("linear", 4).MoveValue();
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(),
                                 FastConfig());
  EXPECT_GT(r.stats.train_ms_per_epoch, 0.0);
  EXPECT_GT(r.stats.infer_ms, 0.0);
  EXPECT_GT(r.stats.peak_accel_bytes, 0u);
}

TEST(FullBatch, SimulatedOomTriggers) {
  auto& tracker = DeviceTracker::Global();
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("optbasis", 8).MoveValue();
  tracker.set_accel_capacity(64 * 1024);  // 64 KB: everything OOMs
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(),
                                 FastConfig());
  tracker.set_accel_capacity(0);
  tracker.ClearOom();
  EXPECT_TRUE(r.oom);
}

TEST(FullBatch, MidTrainingInjectedOomAbortsCleanly) {
  auto& tracker = DeviceTracker::Global();
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 4).MoveValue();
  // Let training warm up, then fail an accelerator allocation mid-run.
  int accel_allocs = 0;
  tracker.SetAllocFaultHook([&](Device d, size_t) {
    return d == Device::kAccel && ++accel_allocs == 200;
  });
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(),
                                 FastConfig());
  tracker.SetAllocFaultHook(nullptr);
  tracker.ClearOom();
  EXPECT_TRUE(r.oom);
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfMemory);
  EXPECT_GT(accel_allocs, 200);  // run kept allocating but never crashed
}

TEST(FullBatch, NanDivergenceAborts) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 4).MoveValue();
  TrainConfig c = FastConfig();
  c.weights_opt.lr = 1e18;  // blows up the loss within a few steps
  c.filter_opt.lr = 1e18;
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(), c);
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.status.code(), StatusCode::kNumericalError);
  EXPECT_FALSE(r.oom);
}

/// A short run of one of the eight training schemes, with `filter` where
/// the scheme takes one.
TrainResult RunScheme(const std::string& scheme, const graph::Graph& g,
                      const graph::Splits& s, TrainConfig c,
                      const char* filter = "ppr") {
  const auto acc = graph::Metric::kAccuracy;
  auto f = filters::CreateFilter(filter, 4, {}, g.features.cols()).MoveValue();
  if (scheme == "fb") return TrainFullBatch(g, s, acc, f.get(), c);
  if (scheme == "mb") {
    c.phi0_layers = 0;
    c.phi1_layers = 2;
    return TrainMiniBatch(g, s, acc, f.get(), c);
  }
  if (scheme == "gcn") {
    return TrainBaseline(g, s, acc, BaselineKind::kGcn, Backend::kSp, c);
  }
  if (scheme == "nagphormer") {
    return TrainBaseline(g, s, acc, BaselineKind::kNagphormer, Backend::kSp,
                         c);
  }
  if (scheme == "ansgt") {
    return TrainBaseline(g, s, acc, BaselineKind::kAnsGt, Backend::kSp, c);
  }
  if (scheme == "gp") {
    PartitionConfig p;
    p.base = c;
    return TrainGraphPartition(g, s, acc, f.get(), p);
  }
  if (scheme == "iterative") {
    IterativeConfig it;
    it.base = c;
    return TrainIterative(g, s, acc, it);
  }
  EXPECT_EQ(scheme, "linkpred");
  LinkPredConfig lp;
  lp.base = c;
  return TrainLinkPrediction(g, f.get(), lp);
}

/// Every scheme runs the one epoch loop, so every scheme honours its guards.
class SchemeGuards : public ::testing::TestWithParam<std::string> {};

TEST_P(SchemeGuards, DeadlineMarksTimeout) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig c = FastConfig();
  c.epochs = 100000;
  c.deadline_ms = 1.0;
  const TrainResult r = RunScheme(GetParam(), g, s, c);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.stats.infer_ms, 0.0) << "inference ran after the guard fired";
}

TEST_P(SchemeGuards, TinyCapacityStopsAfterOneEpoch) {
  auto& tracker = DeviceTracker::Global();
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  // Counts accelerator allocations without failing any.
  size_t allocs = 0;
  tracker.SetAllocFaultHook([&](Device d, size_t) {
    allocs += d == Device::kAccel ? 1 : 0;
    return false;
  });
  tracker.set_accel_capacity(64 * 1024);
  size_t one_epoch = 0;
  TrainResult r;
  for (const int epochs : {1, 40}) {
    TrainConfig c = FastConfig();
    c.epochs = epochs;
    allocs = 0;
    r = RunScheme(GetParam(), g, s, c);
    if (epochs == 1) one_epoch = allocs;
  }
  tracker.set_accel_capacity(0);
  tracker.SetAllocFaultHook(nullptr);
  tracker.ClearOom();
  EXPECT_TRUE(r.oom);
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(allocs, one_epoch) << "a 40-epoch run went past its first epoch";
  EXPECT_EQ(r.stats.infer_ms, 0.0) << "inference ran after the guard fired";
}

TEST_P(SchemeGuards, InvalidConfigIsRejectedBeforeSetUp) {
  auto& tracker = DeviceTracker::Global();
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  struct Case {
    const char* field;
    void (*edit)(TrainConfig*);
  };
  const Case cases[] = {
      {"hidden", [](TrainConfig* c) { c->hidden = 0; }},
      {"epochs", [](TrainConfig* c) { c->epochs = 0; }},
      {"eval_every", [](TrainConfig* c) { c->eval_every = 0; }},
      {"rho", [](TrainConfig* c) { c->rho = 7.0; }},
      {"rho", [](TrainConfig* c) { c->rho = -0.25; }},
      {"rho", [](TrainConfig* c) { c->rho = std::nan(""); }},
  };
  // Counts accelerator allocations without failing any.
  size_t allocs = 0;
  tracker.SetAllocFaultHook([&](Device d, size_t) {
    allocs += d == Device::kAccel ? 1 : 0;
    return false;
  });
  for (const Case& c : cases) {
    TrainConfig config = FastConfig();
    c.edit(&config);
    const TrainResult r = RunScheme(GetParam(), g, s, config);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(r.status.ToString().find(c.field), std::string::npos)
        << r.status.ToString();
  }
  tracker.SetAllocFaultHook(nullptr);
  EXPECT_EQ(allocs, 0u) << "a rejected config reached set-up";
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeGuards,
                         ::testing::Values("fb", "mb", "gcn", "nagphormer",
                                           "ansgt", "gp", "iterative",
                                           "linkpred"),
                         [](const auto& info) { return info.param; });

TEST(MiniBatch, FullBatchOnlyFilterReturnsStatusInsteadOfAborting) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  ASSERT_FALSE(filters::CreateFilter("adagnn", 4, {}, g.features.cols())
                   .value()
                   ->SupportsMiniBatch());
  // Link prediction used to abort here on an SGNN_CHECK.
  for (const char* scheme : {"mb", "linkpred"}) {
    const TrainResult r = RunScheme(scheme, g, s, FastConfig(), "adagnn");
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << scheme;
  }
}

TEST(MiniBatch, NonPositiveBatchSizeIsInvalidArgument) {
  // Regression: a batch size of 0 never advanced the batch loop, so the
  // run hung instead of failing.
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig c = FastConfig();
  c.epochs = 1;
  for (const char* scheme : {"mb", "nagphormer", "linkpred"}) {
    for (const int batch : {0, -1}) {
      c.batch_size = batch;
      const TrainResult r = RunScheme(scheme, g, s, c);
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
          << scheme << " batch_size=" << batch << ": " << r.status.ToString();
    }
  }
}

TEST(FullBatch, CapturesEmbeddings) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 4).MoveValue();
  TrainConfig c = FastConfig();
  c.epochs = 10;
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(), c,
                                 /*capture_embeddings=*/true);
  EXPECT_EQ(r.embeddings.rows(), g.n);
}

TEST(MiniBatch, LearnsAboveChance) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 8).MoveValue();
  TrainConfig c = FastConfig();
  c.phi0_layers = 0;
  c.phi1_layers = 2;
  TrainResult r = TrainMiniBatch(g, s, graph::Metric::kAccuracy, f.get(), c);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.test_metric, 0.6);
  EXPECT_GT(r.stats.precompute_ms, 0.0);
}

TEST(MiniBatch, VariableFilterTrainsTheta) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("var_monomial", 8).MoveValue();
  TrainConfig c = FastConfig();
  c.phi0_layers = 0;
  c.phi1_layers = 2;
  TrainResult r = TrainMiniBatch(g, s, graph::Metric::kAccuracy, f.get(), c);
  EXPECT_GT(r.test_metric, 0.6);
}

TEST(MiniBatch, ComparableToFullBatch) {
  // RQ5: MB delivers comparable accuracy to FB for the same filter.
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig fb_cfg = FastConfig();
  auto f1 = filters::CreateFilter("monomial", 8).MoveValue();
  TrainResult fb =
      TrainFullBatch(g, s, graph::Metric::kAccuracy, f1.get(), fb_cfg);
  TrainConfig mb_cfg = FastConfig();
  mb_cfg.phi0_layers = 0;
  mb_cfg.phi1_layers = 2;
  auto f2 = filters::CreateFilter("monomial", 8).MoveValue();
  TrainResult mb =
      TrainMiniBatch(g, s, graph::Metric::kAccuracy, f2.get(), mb_cfg);
  EXPECT_NEAR(fb.test_metric, mb.test_metric, 0.12);
}

TEST(MiniBatch, AccelFootprintBelowFullBatch) {
  // The MB scheme must keep accelerator memory independent of graph size.
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig cfg = FastConfig();
  cfg.batch_size = 64;
  auto f1 = filters::CreateFilter("chebyshev", 8).MoveValue();
  TrainResult fb =
      TrainFullBatch(g, s, graph::Metric::kAccuracy, f1.get(), cfg);
  TrainConfig mb_cfg = cfg;
  mb_cfg.phi0_layers = 0;
  mb_cfg.phi1_layers = 2;
  auto f2 = filters::CreateFilter("chebyshev", 8).MoveValue();
  TrainResult mb =
      TrainMiniBatch(g, s, graph::Metric::kAccuracy, f2.get(), mb_cfg);
  EXPECT_LT(mb.stats.peak_accel_bytes, fb.stats.peak_accel_bytes);
}

TEST(Metric, RocAucPathUsed) {
  graph::GeneratorConfig c;
  c.n = 400;
  c.avg_degree = 6.0;
  c.num_classes = 2;
  c.homophily = 0.8;
  c.feature_dim = 8;
  c.noise = 1.5;
  c.seed = 6;
  graph::Graph g = graph::GenerateSbm(c);
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 6).MoveValue();
  TrainResult r = TrainFullBatch(g, s, graph::Metric::kRocAuc, f.get(),
                                 FastConfig());
  EXPECT_GT(r.test_metric, 0.7);
  EXPECT_LE(r.test_metric, 1.0);
}

TEST(Baselines, GcnSpLearns) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainResult r = TrainBaseline(g, s, graph::Metric::kAccuracy,
                                BaselineKind::kGcn, Backend::kSp, FastConfig());
  EXPECT_GT(r.test_metric, 0.5);
}

TEST(Baselines, EiMatchesSpAccuracy) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig c = FastConfig();
  c.epochs = 20;
  TrainResult sp = TrainBaseline(g, s, graph::Metric::kAccuracy,
                                 BaselineKind::kGcn, Backend::kSp, c);
  TrainResult ei = TrainBaseline(g, s, graph::Metric::kAccuracy,
                                 BaselineKind::kGcn, Backend::kEi, c);
  EXPECT_NEAR(sp.test_metric, ei.test_metric, 0.05);
  // EI pays the O(mF) message buffer on the accelerator.
  EXPECT_GT(ei.stats.peak_accel_bytes, sp.stats.peak_accel_bytes);
}

TEST(Baselines, SageAndChebRun) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig c = FastConfig();
  c.epochs = 15;
  TrainResult sage = TrainBaseline(g, s, graph::Metric::kAccuracy,
                                   BaselineKind::kSage, Backend::kSp, c);
  TrainResult cheb = TrainBaseline(g, s, graph::Metric::kAccuracy,
                                   BaselineKind::kChebNet, Backend::kSp, c);
  EXPECT_GT(sage.test_metric, 0.4);
  EXPECT_GT(cheb.test_metric, 0.4);
}

TEST(Baselines, NagphormerHasPrecompute) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig c = FastConfig();
  c.epochs = 10;
  TrainResult r = TrainBaseline(g, s, graph::Metric::kAccuracy,
                                BaselineKind::kNagphormer, Backend::kSp, c);
  EXPECT_GT(r.stats.precompute_ms, 0.0);
  EXPECT_GT(r.test_metric, 0.4);
}

TEST(Baselines, AnsGtRuns) {
  graph::Graph g = EasyGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  TrainConfig c = FastConfig();
  c.epochs = 30;
  TrainResult r = TrainBaseline(g, s, graph::Metric::kAccuracy,
                                BaselineKind::kAnsGt, Backend::kSp, c);
  EXPECT_GT(r.test_metric, 0.3);
}

TEST(Baselines, Labels) {
  EXPECT_EQ(BaselineLabel(BaselineKind::kGcn, Backend::kSp), "GCN (SP)");
  EXPECT_EQ(BaselineLabel(BaselineKind::kSage, Backend::kEi),
            "GraphSAGE (EI)");
  EXPECT_EQ(BaselineLabel(BaselineKind::kNagphormer, Backend::kSp),
            "NAGphormer-lite");
}

TEST(LinkPrediction, BeatsChanceAuc) {
  graph::Graph g = EasyGraph();
  auto f = filters::CreateFilter("ppr", 6).MoveValue();
  LinkPredConfig cfg;
  cfg.base = FastConfig();
  cfg.base.epochs = 20;
  TrainResult r = TrainLinkPrediction(g, f.get(), cfg);
  EXPECT_GT(r.test_metric, 0.6);
  EXPECT_GT(r.stats.precompute_ms, 0.0);
}

TEST(Regression, OptBasisFitsLowPass) {
  graph::GeneratorConfig gc;
  gc.n = 200;
  gc.avg_degree = 6.0;
  gc.num_classes = 2;
  gc.feature_dim = 4;
  gc.seed = 8;
  graph::Graph g = graph::GenerateSbm(gc);
  RegressionConfig cfg;
  cfg.epochs = 400;
  cfg.filter_opt.lr = 5e-2;
  RegressionProblem problem = BuildRegressionProblem(g, cfg);
  const auto low = eval::RegressionSignals()[3];
  ASSERT_EQ(low.name, "low");
  auto f = filters::CreateFilter("optbasis", 8).MoveValue();
  RegressionResult r = RunSignalRegression(problem, low.fn, f.get(), cfg);
  EXPECT_GT(r.r2, 0.9);
}

TEST(Regression, LowPassFixedFilterPoorOnHighPass) {
  graph::GeneratorConfig gc;
  gc.n = 200;
  gc.avg_degree = 6.0;
  gc.num_classes = 2;
  gc.feature_dim = 4;
  gc.seed = 8;
  graph::Graph g = graph::GenerateSbm(gc);
  RegressionConfig cfg;
  RegressionProblem problem = BuildRegressionProblem(g, cfg);
  const auto high = eval::RegressionSignals()[2];
  ASSERT_EQ(high.name, "high");
  auto f = filters::CreateFilter("linear", 8).MoveValue();
  RegressionResult r = RunSignalRegression(problem, high.fn, f.get(), cfg);
  EXPECT_LT(r.r2, 0.5);
}

TEST(Regression, VariableBeatsFixedOnBandSignal) {
  graph::GeneratorConfig gc;
  gc.n = 200;
  gc.avg_degree = 6.0;
  gc.num_classes = 2;
  gc.feature_dim = 4;
  gc.seed = 9;
  graph::Graph g = graph::GenerateSbm(gc);
  RegressionConfig cfg;
  cfg.epochs = 150;
  RegressionProblem problem = BuildRegressionProblem(g, cfg);
  const auto band = eval::RegressionSignals()[0];
  auto fixed = filters::CreateFilter("linear", 8).MoveValue();
  auto learned = filters::CreateFilter("optbasis", 8).MoveValue();
  RegressionResult rf = RunSignalRegression(problem, band.fn, fixed.get(), cfg);
  RegressionResult rl =
      RunSignalRegression(problem, band.fn, learned.get(), cfg);
  EXPECT_GT(rl.r2, rf.r2);
}

}  // namespace
}  // namespace sgnn::models

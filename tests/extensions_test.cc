// Tests for the scheme/propagation extensions: graph-partition training,
// push-based approximate propagation, and the hyperparameter grid search.

#include <gtest/gtest.h>

#include <cmath>

#include "core/registry.h"
#include "eval/tuning.h"
#include "graph/generator.h"
#include "models/iterative.h"
#include "models/partition.h"
#include "sparse/adjacency.h"
#include "sparse/push.h"

namespace sgnn {
namespace {

graph::Graph TestGraph(double homophily = 0.85, int64_t n = 800) {
  graph::GeneratorConfig c;
  c.n = n;
  c.avg_degree = 8.0;
  c.num_classes = 4;
  c.homophily = homophily;
  c.feature_dim = 16;
  c.noise = 2.0;
  c.seed = 3;
  return graph::GenerateSbm(c);
}

// --------------------------------------------------------- GraphPartition

TEST(GraphPartition, TrainsAboveChance) {
  graph::Graph g = TestGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 6).MoveValue();
  models::PartitionConfig cfg;
  cfg.base.epochs = 40;
  cfg.base.hidden = 32;
  cfg.num_parts = 4;
  auto r = models::TrainGraphPartition(g, s, graph::Metric::kAccuracy,
                                       f.get(), cfg);
  EXPECT_GT(r.test_metric, 0.5);
  EXPECT_GT(r.stats.precompute_ms, 0.0);
}

TEST(GraphPartition, AccuracyAtMostFullBatchPlusSlack) {
  // The paper: severed topology undermines expressiveness; GP should not
  // beat FB by a margin on a graph where propagation matters.
  graph::Graph g = TestGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  models::TrainConfig base;
  base.epochs = 40;
  base.hidden = 32;
  auto f1 = filters::CreateFilter("impulse", 6).MoveValue();
  auto fb = models::TrainFullBatch(g, s, graph::Metric::kAccuracy, f1.get(),
                                   base);
  models::PartitionConfig cfg;
  cfg.base = base;
  cfg.num_parts = 12;
  auto f2 = filters::CreateFilter("impulse", 6).MoveValue();
  auto gp = models::TrainGraphPartition(g, s, graph::Metric::kAccuracy,
                                        f2.get(), cfg);
  EXPECT_LT(gp.test_metric, fb.test_metric + 0.05);
}

TEST(GraphPartition, PartCountOutsideRangeIsInvalidArgument) {
  // A part count of 0 used to abort inside the partitioner, and one above
  // n sized the per-part state before anything checked it.
  graph::Graph g = TestGraph(0.85, 60);
  graph::Splits s = graph::RandomSplits(g.n, 1);
  auto f = filters::CreateFilter("ppr", 4).MoveValue();
  models::PartitionConfig cfg;
  cfg.base.epochs = 1;
  for (const int parts : {0, -3, static_cast<int>(g.n) + 1}) {
    cfg.num_parts = parts;
    const auto r = models::TrainGraphPartition(g, s, graph::Metric::kAccuracy,
                                               f.get(), cfg);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
        << "num_parts=" << parts << ": " << r.status.ToString();
  }
  cfg.num_parts = static_cast<int>(g.n);  // one node per part is allowed
  const auto r = models::TrainGraphPartition(g, s, graph::Metric::kAccuracy,
                                             f.get(), cfg);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
}

// ------------------------------------------------------------------ Push

sparse::CsrMatrix NormOf(const graph::Graph& g) {
  return sparse::NormalizeAdjacency(g.adj, 0.5);
}

/// Exact PPR via dense iteration for reference.
std::vector<float> ExactPpr(const sparse::CsrMatrix& norm, double alpha,
                            const std::vector<float>& x, int hops = 60) {
  std::vector<float> cur = x;
  std::vector<float> out(x.size(), 0.0f);
  double w = alpha;
  std::vector<float> next;
  for (int k = 0; k <= hops; ++k) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += static_cast<float>(w * cur[i]);
    }
    w *= (1.0 - alpha);
    norm.SpMV(cur, &next);
    cur.swap(next);
  }
  return out;
}

TEST(Push, MatchesExactPprWithinTolerance) {
  graph::Graph g = TestGraph(0.8, 400);
  auto norm = NormOf(g);
  Rng rng(5);
  std::vector<float> x(static_cast<size_t>(g.n));
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  sparse::PushConfig cfg;
  cfg.alpha = 0.2;
  cfg.epsilon = 1e-6;
  std::vector<float> approx;
  const auto stats = sparse::ApproxPprPush(norm, cfg, x, &approx);
  const std::vector<float> exact = ExactPpr(norm, cfg.alpha, x);
  double max_err = 0.0;
  for (size_t i = 0; i < approx.size(); ++i) {
    max_err = std::max(max_err, std::fabs(double(approx[i]) - exact[i]));
  }
  EXPECT_LT(max_err, 1e-3);
  EXPECT_GT(stats.pushes, 0);
}

TEST(Push, LooserEpsilonDoesLessWork) {
  graph::Graph g = TestGraph(0.8, 400);
  auto norm = NormOf(g);
  Rng rng(6);
  std::vector<float> x(static_cast<size_t>(g.n));
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  sparse::PushConfig tight;
  tight.epsilon = 1e-6;
  sparse::PushConfig loose;
  loose.epsilon = 1e-2;
  std::vector<float> out;
  const auto s_tight = sparse::ApproxPprPush(norm, tight, x, &out);
  const auto s_loose = sparse::ApproxPprPush(norm, loose, x, &out);
  EXPECT_LT(s_loose.edge_touches, s_tight.edge_touches);
}

TEST(Push, SparseSeedTouchesFewEdges) {
  // A single-seed signal should stay local under loose thresholds.
  graph::Graph g = TestGraph(0.8, 1000);
  auto norm = NormOf(g);
  std::vector<float> x(static_cast<size_t>(g.n), 0.0f);
  x[17] = 1.0f;
  sparse::PushConfig cfg;
  cfg.epsilon = 1e-3;
  std::vector<float> out;
  const auto stats = sparse::ApproxPprPush(norm, cfg, x, &out);
  EXPECT_LT(stats.edge_touches, norm.nnz() * 4);
  EXPECT_GT(out[17], 0.1f);  // most mass stays at the seed
}

TEST(Push, MatrixVersionMatchesColumns) {
  graph::Graph g = TestGraph(0.8, 300);
  auto norm = NormOf(g);
  Matrix x(g.n, 3, Device::kHost);
  Rng rng(7);
  x.FillNormal(&rng);
  sparse::PushConfig cfg;
  cfg.epsilon = 1e-5;
  Matrix out;
  sparse::ApproxPprPushMatrix(norm, cfg, x, &out);
  // Column 1 alone must match the vector API.
  std::vector<float> col(static_cast<size_t>(g.n));
  for (int64_t i = 0; i < g.n; ++i) col[static_cast<size_t>(i)] = x.at(i, 1);
  std::vector<float> ref;
  sparse::ApproxPprPush(norm, cfg, col, &ref);
  for (int64_t i = 0; i < g.n; ++i) {
    EXPECT_NEAR(out.at(i, 1), ref[static_cast<size_t>(i)], 1e-6);
  }
}

// ------------------------------------------------------------ GridSearch

TEST(GridSearch, FindsBestPoint) {
  eval::TuningGrid grid;
  grid.alphas = {0.1, 0.3, 0.7};
  grid.rhos = {0.0, 0.5, 1.0};
  const auto r = eval::GridSearch(grid, [](const eval::TuningPoint& p) {
    // Peak at alpha=0.3, rho=0.5.
    return -std::fabs(p.hp.alpha - 0.3) - std::fabs(p.rho - 0.5);
  });
  EXPECT_EQ(r.evaluated, 9);
  EXPECT_DOUBLE_EQ(r.best.hp.alpha, 0.3);
  EXPECT_DOUBLE_EQ(r.best.rho, 0.5);
}

TEST(GridSearch, EmptyAxesUseDefaults) {
  eval::TuningGrid grid;
  const auto r = eval::GridSearch(
      grid, [](const eval::TuningPoint&) { return 1.0; });
  EXPECT_EQ(r.evaluated, 1);
  EXPECT_DOUBLE_EQ(r.best_metric, 1.0);
}

TEST(GridSearch, CrossProductSize) {
  eval::TuningGrid grid;
  grid.alphas = {0.1, 0.2};
  grid.betas = {0.3};
  grid.lr_filters = {0.01, 0.05, 0.1};
  const auto r = eval::GridSearch(
      grid, [](const eval::TuningPoint& p) { return p.lr_filter; });
  EXPECT_EQ(r.evaluated, 6);
  EXPECT_DOUBLE_EQ(r.best.lr_filter, 0.1);
}


// ------------------------------------------------------- Iterative model

TEST(Iterative, TrainsAboveChance) {
  graph::Graph g = TestGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  models::IterativeConfig cfg;
  cfg.base.epochs = 40;
  cfg.base.hidden = 32;
  cfg.layers = 2;
  cfg.layer_filter = "linear";
  auto r = models::TrainIterative(g, s, graph::Metric::kAccuracy, cfg);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.test_metric, 0.55);
}

TEST(Iterative, LearnableLayerFiltersTrain) {
  graph::Graph g = TestGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  models::IterativeConfig cfg;
  cfg.base.epochs = 40;
  cfg.base.hidden = 32;
  cfg.layers = 2;
  cfg.layer_filter = "var_linear";
  auto r = models::TrainIterative(g, s, graph::Metric::kAccuracy, cfg);
  EXPECT_GT(r.test_metric, 0.55);
}

TEST(Iterative, DeeperStacksStillFinite) {
  graph::Graph g = TestGraph(0.85, 400);
  graph::Splits s = graph::RandomSplits(g.n, 1);
  models::IterativeConfig cfg;
  cfg.base.epochs = 15;
  cfg.base.hidden = 16;
  cfg.layers = 4;
  cfg.layer_filter = "acmgnn1";
  auto r = models::TrainIterative(g, s, graph::Metric::kAccuracy, cfg);
  EXPECT_TRUE(std::isfinite(r.final_train_loss));
}

TEST(Iterative, UnknownLayerFilterReturnsStatus) {
  // Regression: an unknown layer filter aborted the process.
  graph::Graph g = TestGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  models::IterativeConfig cfg;
  cfg.base.epochs = 2;
  cfg.layer_filter = "nosuchfilter";
  auto r = models::TrainIterative(g, s, graph::Metric::kAccuracy, cfg);
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound) << r.status.ToString();
}

TEST(Iterative, ComparableToDecoupledSameContent) {
  // Paper Appendix A.1: same propagation expressiveness; empirical accuracy
  // should be in the same band for a simple homophilous task.
  graph::Graph g = TestGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  models::IterativeConfig icfg;
  icfg.base.epochs = 40;
  icfg.base.hidden = 32;
  icfg.layers = 2;
  icfg.layer_filter = "linear";
  auto it = models::TrainIterative(g, s, graph::Metric::kAccuracy, icfg);
  auto f = filters::CreateFilter("linear", 2).MoveValue();
  models::TrainConfig dcfg;
  dcfg.epochs = 40;
  dcfg.hidden = 32;
  auto dec = models::TrainFullBatch(g, s, graph::Metric::kAccuracy, f.get(),
                                    dcfg);
  EXPECT_NEAR(it.test_metric, dec.test_metric, 0.15);
}

}  // namespace
}  // namespace sgnn

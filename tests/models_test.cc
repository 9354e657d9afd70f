// Tests for the link-prediction and signal-regression pipelines
// (src/models/linkpred, src/models/regression), built on the conformance
// fuzz layer's seeded graph generators so coverage extends beyond the
// hand-made SBM fixtures used elsewhere.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "conformance/fuzz.h"
#include "core/registry.h"
#include "graph/graph.h"
#include "models/linkpred.h"
#include "models/regression.h"
#include "sparse/adjacency.h"
#include "tensor/rng.h"

namespace sgnn::models {
namespace {

// Materializes a conformance::FuzzCase as a graph::Graph with random
// features and labels — the fuzz families (ER/SBM/star/path/...) become
// link-prediction and regression fixtures.
graph::Graph GraphFromCase(const conformance::FuzzCase& c, int64_t feature_dim,
                           int32_t num_classes) {
  auto adj = sparse::BuildAdjacency(c.n, c.edges, c.self_loops);
  SGNN_CHECK_OK(adj);
  graph::Graph g;
  g.n = c.n;
  g.adj = adj.MoveValue();
  Rng rng(c.seed ^ 0xB00C);
  g.features = Matrix(c.n, feature_dim, Device::kHost);
  g.features.FillNormal(&rng);
  g.num_classes = num_classes;
  g.labels.resize(static_cast<size_t>(c.n));
  for (auto& l : g.labels) {
    l = static_cast<int32_t>(rng.UniformInt(num_classes));
  }
  return g;
}

// First fuzz seed >= `from` whose generated family matches and whose graph
// has at least `min_n` nodes and `min_edges` edges.
conformance::FuzzCase FindCase(const std::string& family, uint64_t from,
                               int64_t min_n, size_t min_edges) {
  for (uint64_t seed = from; seed < from + 4096; ++seed) {
    const conformance::FuzzCase c = conformance::CaseFromSeed(seed);
    if (c.family == family && c.n >= min_n && c.edges.size() >= min_edges) {
      return c;
    }
  }
  ADD_FAILURE() << "no " << family << " case found from seed " << from;
  return conformance::CaseFromSeed(from);
}

LinkPredConfig FastLinkPredConfig() {
  LinkPredConfig c;
  c.base.epochs = 30;
  c.base.eval_every = 5;
  c.base.hidden = 16;
  c.base.batch_size = 512;
  c.base.seed = 7;
  c.neg_ratio = 2;
  return c;
}

TEST(LinkPred, TrainsOnSbmGraphAndBeatsChance) {
  const auto c = FindCase("sbm", 1, 28, 80);
  graph::Graph g = GraphFromCase(c, 16, 2);
  // Plant the two-block community signal in the features: SBM positives are
  // mostly within-community, so filtered embeddings become predictive and
  // the scorer must clear chance by a wide margin.
  for (int64_t i = 0; i < g.n; ++i) {
    g.features.at(i, 0) += (i < g.n / 2) ? 3.0f : -3.0f;
  }
  auto filter = filters::CreateFilter("ppr", 6);
  ASSERT_TRUE(filter.ok()) << filter.status().ToString();
  LinkPredConfig config = FastLinkPredConfig();
  config.base.epochs = 60;
  config.neg_ratio = 3;
  const TrainResult r =
      TrainLinkPrediction(g, filter.value().get(), config);
  EXPECT_FALSE(r.oom);
  EXPECT_TRUE(std::isfinite(r.test_metric));
  EXPECT_GE(r.test_metric, 0.0);
  EXPECT_LE(r.test_metric, 1.0);
  EXPECT_GT(r.test_metric, 0.55) << "auc=" << r.test_metric;
}

TEST(LinkPred, DeterministicAcrossIdenticalRuns) {
  const auto c = FindCase("er", 1, 20, 30);
  const graph::Graph g = GraphFromCase(c, 12, 2);
  const LinkPredConfig config = FastLinkPredConfig();
  double auc[2] = {0.0, 0.0};
  for (int run = 0; run < 2; ++run) {
    auto filter = filters::CreateFilter("chebyshev", 5);
    ASSERT_TRUE(filter.ok());
    auc[run] = TrainLinkPrediction(g, filter.value().get(), config).test_metric;
  }
  EXPECT_DOUBLE_EQ(auc[0], auc[1]);
}

TEST(LinkPred, SurvivesSparseDisconnectedGraph) {
  const auto c = FindCase("disconnected", 1, 12, 8);
  const graph::Graph g = GraphFromCase(c, 8, 2);
  auto filter = filters::CreateFilter("linear", 3);
  ASSERT_TRUE(filter.ok());
  LinkPredConfig config = FastLinkPredConfig();
  config.base.epochs = 10;
  const TrainResult r =
      TrainLinkPrediction(g, filter.value().get(), config);
  EXPECT_TRUE(std::isfinite(r.test_metric));
  EXPECT_GE(r.test_metric, 0.0);
  EXPECT_LE(r.test_metric, 1.0);
}

TEST(Regression, VariableFilterFitsSmoothLowPassTarget) {
  const auto c = FindCase("er", 1, 24, 40);
  const graph::Graph g = GraphFromCase(c, 4, 2);
  RegressionConfig config;
  config.seed = 3;
  const RegressionProblem problem = BuildRegressionProblem(g, config);
  auto filter = filters::CreateFilter("chebyshev", 6);
  ASSERT_TRUE(filter.ok());
  const auto g_star = [](double lambda) { return std::exp(-lambda); };
  const RegressionResult r =
      RunSignalRegression(problem, g_star, filter.value().get(), config);
  EXPECT_TRUE(std::isfinite(r.r2));
  EXPECT_GE(r.final_mse, 0.0);
  // exp(-λ) on λ ∈ [0,2] is well inside a degree-6 Chebyshev basis.
  EXPECT_GT(r.r2, 0.9) << "r2=" << r.r2 << " mse=" << r.final_mse;
}

TEST(Regression, FixedFilterRecoversOwnScaledResponse) {
  const auto c = FindCase("er", 1, 20, 30);
  const graph::Graph g = GraphFromCase(c, 4, 2);
  RegressionConfig config;
  config.seed = 5;
  const RegressionProblem problem = BuildRegressionProblem(g, config);
  auto target = filters::CreateFilter("ppr", 8);
  ASSERT_TRUE(target.ok());
  auto fit = filters::CreateFilter("ppr", 8);
  ASSERT_TRUE(fit.ok());
  // The analytic scale fit must absorb the 2x factor, so a fixed filter
  // regressing (twice) its own response scores near-perfect R².
  const auto* t = target.value().get();
  const auto g_star = [t](double lambda) { return 2.0 * t->Response(lambda); };
  const RegressionResult r =
      RunSignalRegression(problem, g_star, fit.value().get(), config);
  EXPECT_GT(r.r2, 0.95) << "r2=" << r.r2 << " mse=" << r.final_mse;
}

TEST(Regression, HighPassTargetSeparatesFilterFamilies) {
  const auto c = FindCase("er", 1, 24, 40);
  const graph::Graph g = GraphFromCase(c, 4, 2);
  RegressionConfig config;
  config.seed = 9;
  const RegressionProblem problem = BuildRegressionProblem(g, config);
  const auto g_star = [](double lambda) { return lambda / 2.0; };
  auto variable = filters::CreateFilter("var_monomial", 6);
  ASSERT_TRUE(variable.ok());
  const RegressionResult rv =
      RunSignalRegression(problem, g_star, variable.value().get(), config);
  auto fixed = filters::CreateFilter("linear", 6);
  ASSERT_TRUE(fixed.ok());
  const RegressionResult rf =
      RunSignalRegression(problem, g_star, fixed.value().get(), config);
  // A learnable basis realizes the high-pass ramp; the fixed low-pass GCN
  // filter cannot (Table 7's separation).
  EXPECT_GT(rv.r2, rf.r2) << "variable r2=" << rv.r2 << " fixed r2=" << rf.r2;
  EXPECT_GT(rv.r2, 0.8) << "r2=" << rv.r2;
}

TEST(Regression, SelfLoopFamilyProblemIsWellFormed) {
  const auto c = FindCase("self_loop", 1, 8, 4);
  const graph::Graph g = GraphFromCase(c, 4, 2);
  RegressionConfig config;
  config.seed = 11;
  const RegressionProblem problem = BuildRegressionProblem(g, config);
  EXPECT_EQ(problem.norm.n(), g.n);
  EXPECT_EQ(problem.x.rows(), g.n);
  ASSERT_EQ(problem.eig.values.size(), static_cast<size_t>(g.n));
  for (double lambda : problem.eig.values) {
    EXPECT_GE(lambda, -1e-4);
    EXPECT_LE(lambda, 2.0 + 1e-4);
  }
}

}  // namespace
}  // namespace sgnn::models

// Tests for synthetic graph generation and the dataset registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "graph/datasets.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/weighted_sampler.h"

namespace sgnn::graph {
namespace {

GeneratorConfig SmallConfig(double homophily) {
  GeneratorConfig c;
  c.n = 800;
  c.avg_degree = 8.0;
  c.num_classes = 4;
  c.homophily = homophily;
  c.feature_dim = 16;
  c.seed = 11;
  return c;
}

TEST(Generator, ProducesRequestedSize) {
  Graph g = GenerateSbm(SmallConfig(0.8));
  EXPECT_EQ(g.n, 800);
  EXPECT_EQ(g.features.rows(), 800);
  EXPECT_EQ(g.features.cols(), 16);
  EXPECT_EQ(static_cast<int64_t>(g.labels.size()), g.n);
}

TEST(Generator, DegreeNearTarget) {
  Graph g = GenerateSbm(SmallConfig(0.8));
  // nnz includes self loops and both edge directions.
  const double avg_deg =
      static_cast<double>(g.num_edges() - g.n) / static_cast<double>(g.n);
  EXPECT_GT(avg_deg, 4.0);
  EXPECT_LT(avg_deg, 16.0);
}

TEST(Generator, HomophilyTracksTarget) {
  Graph high = GenerateSbm(SmallConfig(0.9));
  Graph low = GenerateSbm(SmallConfig(0.1));
  EXPECT_GT(NodeHomophily(high), 0.6);
  EXPECT_LT(NodeHomophily(low), 0.35);
  EXPECT_GT(NodeHomophily(high), NodeHomophily(low) + 0.3);
}

TEST(Generator, AllClassesPresent) {
  Graph g = GenerateSbm(SmallConfig(0.5));
  std::set<int32_t> seen(g.labels.begin(), g.labels.end());
  EXPECT_EQ(static_cast<int32_t>(seen.size()), g.num_classes);
}

TEST(Generator, DeterministicInSeed) {
  Graph a = GenerateSbm(SmallConfig(0.7));
  Graph b = GenerateSbm(SmallConfig(0.7));
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_TRUE(a.features.AllClose(b.features));
}

TEST(Generator, SeedChangesGraph) {
  GeneratorConfig c1 = SmallConfig(0.7);
  GeneratorConfig c2 = c1;
  c2.seed = 12;
  Graph a = GenerateSbm(c1);
  Graph b = GenerateSbm(c2);
  EXPECT_NE(a.labels, b.labels);
}

TEST(Generator, ClassSkewImbalances) {
  GeneratorConfig c = SmallConfig(0.5);
  c.class_skew = 1.5;
  Graph g = GenerateSbm(c);
  std::vector<int64_t> counts(4, 0);
  for (const int32_t y : g.labels) counts[static_cast<size_t>(y)]++;
  EXPECT_GT(counts[0], counts[3] * 2);
}

TEST(Generator, GridTopologyIsRegular) {
  GeneratorConfig c = SmallConfig(0.7);
  Graph g = GenerateGrid(20, 20, c);
  EXPECT_EQ(g.n, 400);
  // Interior node of an 8-neighborhood grid: 8 neighbors + self loop.
  int64_t max_deg = 0;
  for (int64_t v = 0; v < g.n; ++v) {
    max_deg = std::max(max_deg, g.adj.RowDegree(v));
  }
  EXPECT_EQ(max_deg, 9);
}

TEST(Generator, GridLabelsPatchy) {
  GeneratorConfig c = SmallConfig(0.85);
  Graph g = GenerateGrid(30, 30, c);
  EXPECT_GT(NodeHomophily(g), 0.45);
}

/// The reference index: the first cumulative weight above u, found by
/// std::upper_bound and clamped to the last index.
size_t UpperBoundIndex(const std::vector<double>& cumulative, double u) {
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  return std::min(static_cast<size_t>(it - cumulative.begin()),
                  cumulative.size() - 1);
}

/// Checks WeightedSampler against upper_bound plus the clamp: Index at each
/// cumulative weight, just below and above it, at 0 and at the total, and
/// Sample on 20000 seeded draws.
void ExpectSamplerMatchesUpperBound(const std::vector<int32_t>& nodes,
                                    const std::vector<double>& weights) {
  const WeightedSampler sampler(nodes, weights);
  std::vector<double> cumulative;
  double total = 0.0;
  for (const int32_t v : nodes) {
    total += weights[static_cast<size_t>(v)];
    cumulative.push_back(total);
  }
  std::vector<double> us = {0.0, total};
  for (const double c : cumulative) {
    us.push_back(c);
    us.push_back(std::nextafter(c, 0.0));
    us.push_back(std::nextafter(c, 2.0 * total + 1.0));
  }
  for (const double u : us) {
    ASSERT_EQ(sampler.Index(u), UpperBoundIndex(cumulative, u)) << "u=" << u;
  }
  Rng a(5), b(5);
  for (int k = 0; k < 20000; ++k) {
    const double u = b.Uniform() * total;
    ASSERT_EQ(sampler.Sample(&a), nodes[UpperBoundIndex(cumulative, u)])
        << "draw " << k;
  }
}

TEST(WeightedSampler, MatchesUpperBoundOnZeroWeightPlateaus) {
  const std::vector<int32_t> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  ExpectSamplerMatchesUpperBound(
      nodes, {0, 0, 1.0, 0, 0, 0, 2.5, 0, 0, 0.5, 0, 0});
  ExpectSamplerMatchesUpperBound(nodes, std::vector<double>(12, 0.0));
}

TEST(WeightedSampler, MatchesUpperBoundOnParetoClampedWeights) {
  // The generator's propensities: Pareto(1.5) draws clamped to [1, 1e3],
  // over a subset of the nodes in a shuffled order.
  Rng rng(9);
  std::vector<double> weights(6000);
  for (double& w : weights) {
    w = std::min(std::pow(std::max(rng.Uniform(), 1e-12), -1.0 / 1.5), 1e3);
  }
  weights[18] = 1e3;  // one node of the subset at the clamp
  std::vector<int32_t> nodes;
  for (int32_t v = 0; v < 6000; v += 3) nodes.push_back(v);
  Shuffle(&nodes, &rng);
  ExpectSamplerMatchesUpperBound(nodes, weights);
}

TEST(WeightedSampler, MatchesUpperBoundOnASingleNode) {
  std::vector<double> weights(8, 0.0);
  weights[7] = 3.0;
  ExpectSamplerMatchesUpperBound({7}, weights);
  ExpectSamplerMatchesUpperBound({2}, weights);
}

TEST(Splits, PartitionCoversAllNodes) {
  Splits s = RandomSplits(100, 7);
  EXPECT_EQ(s.train.size() + s.val.size() + s.test.size(), 100u);
  std::set<int32_t> all;
  all.insert(s.train.begin(), s.train.end());
  all.insert(s.val.begin(), s.val.end());
  all.insert(s.test.begin(), s.test.end());
  EXPECT_EQ(all.size(), 100u);  // disjoint
}

TEST(Splits, RespectsFractions) {
  Splits s = RandomSplits(1000, 3);
  EXPECT_EQ(s.train.size(), 600u);
  EXPECT_EQ(s.val.size(), 200u);
  EXPECT_EQ(s.test.size(), 200u);
}

TEST(Splits, SeedDeterminism) {
  Splits a = RandomSplits(50, 9);
  Splits b = RandomSplits(50, 9);
  Splits c = RandomSplits(50, 10);
  EXPECT_EQ(a.train, b.train);
  EXPECT_NE(a.train, c.train);
}

TEST(DegreeBuckets, PartitionByMedian) {
  Graph g = GenerateSbm(SmallConfig(0.5));
  std::vector<int32_t> low, high;
  DegreeBuckets(g, &low, &high);
  EXPECT_EQ(low.size() + high.size(), static_cast<size_t>(g.n));
  EXPECT_GT(low.size(), 0u);
  EXPECT_GT(high.size(), 0u);
}

TEST(Datasets, RegistryHas22Entries) {
  EXPECT_EQ(AllDatasets().size(), 22u);
}

TEST(Datasets, ScaleCategoriesMatchTable3) {
  EXPECT_EQ(DatasetsByScale(Scale::kSmall).size(), 11u);
  EXPECT_EQ(DatasetsByScale(Scale::kMedium).size(), 6u);
  EXPECT_EQ(DatasetsByScale(Scale::kLarge).size(), 5u);
}

TEST(Datasets, FindByName) {
  auto r = FindDataset("cora_sim");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_classes, 7);
  EXPECT_FALSE(FindDataset("nope").ok());
}

TEST(Datasets, MakeMatchesSpec) {
  const auto spec = FindDataset("chameleon_sim").value();
  Graph g = MakeDataset(spec, 1);
  EXPECT_EQ(g.n, spec.n);
  EXPECT_EQ(g.num_classes, spec.num_classes);
  EXPECT_EQ(g.features.cols(), spec.feature_dim);
  // Realized homophily within a loose band of the target.
  EXPECT_NEAR(NodeHomophily(g), spec.homophily, 0.2);
}

TEST(Datasets, HeterophilousSpecsAreHeterophilous) {
  for (const auto& spec : AllDatasets()) {
    if (spec.scale != Scale::kSmall) continue;
    Graph g = MakeDataset(spec, 2);
    const double h = NodeHomophily(g);
    if (spec.homophilous) {
      EXPECT_GT(h, 0.4) << spec.name;
    } else {
      EXPECT_LT(h, 0.5) << spec.name;
    }
  }
}

TEST(Datasets, UnknownNameErrors) {
  EXPECT_FALSE(MakeDatasetByName("missing_sim", 1).ok());
}

TEST(Homophily, PerfectOnSingleClassGraph) {
  GeneratorConfig c = SmallConfig(0.5);
  Graph g = GenerateSbm(c);
  std::fill(g.labels.begin(), g.labels.end(), 0);
  EXPECT_DOUBLE_EQ(NodeHomophily(g), 1.0);
}

}  // namespace
}  // namespace sgnn::graph

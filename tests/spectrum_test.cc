// Tests for eigendecomposition-free spectrum analysis (KPM density, band
// energies, Rayleigh-quotient label frequency).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "eval/eigen.h"
#include "eval/spectrum.h"
#include "graph/generator.h"
#include "sparse/adjacency.h"

namespace sgnn::eval {
namespace {

graph::Graph MakeGraph(double homophily, uint64_t seed = 4, int64_t n = 400) {
  graph::GeneratorConfig c;
  c.n = n;
  c.avg_degree = 8.0;
  c.num_classes = 4;
  c.homophily = homophily;
  c.feature_dim = 8;
  c.seed = seed;
  return graph::GenerateSbm(c);
}

TEST(KpmDensity, SumsToOne) {
  graph::Graph g = MakeGraph(0.7);
  auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  const auto density = KpmSpectralDensity(norm, {});
  double total = std::accumulate(density.begin(), density.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (const double d : density) EXPECT_GE(d, 0.0);
}

TEST(KpmDensity, MatchesExactHistogram) {
  graph::Graph g = MakeGraph(0.7, 5, 200);
  auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  KpmConfig cfg;
  cfg.bins = 8;
  const auto density = KpmSpectralDensity(norm, cfg);
  // Exact histogram from the dense spectrum.
  Matrix lap = DenseLaplacian(norm);
  auto eig = JacobiEigen(lap).MoveValue();
  std::vector<double> exact(8, 0.0);
  for (const double lam : eig.values) {
    const int bin = std::min(7, std::max(0, static_cast<int>(lam / 0.25)));
    exact[static_cast<size_t>(bin)] += 1.0 / static_cast<double>(g.n);
  }
  for (int b = 0; b < 8; ++b) {
    EXPECT_NEAR(density[static_cast<size_t>(b)], exact[static_cast<size_t>(b)],
                0.08)
        << "bin " << b;
  }
}

TEST(KpmDensity, DeterministicInSeed) {
  graph::Graph g = MakeGraph(0.7);
  auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  const auto d1 = KpmSpectralDensity(norm, {});
  const auto d2 = KpmSpectralDensity(norm, {});
  for (size_t i = 0; i < d1.size(); ++i) EXPECT_DOUBLE_EQ(d1[i], d2[i]);
}

TEST(BandEnergy, SumsToOne) {
  graph::Graph g = MakeGraph(0.7);
  auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  const auto bands = SignalBandEnergy(norm, g.features, 4);
  double total = std::accumulate(bands.begin(), bands.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(BandEnergy, EigenvectorConcentratesInItsBand) {
  graph::Graph g = MakeGraph(0.7, 6, 150);
  auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  Matrix lap = DenseLaplacian(norm);
  auto eig = JacobiEigen(lap).MoveValue();
  // Pick an eigenvalue near the middle of a band; its eigenvector's energy
  // must land dominantly in that band.
  int64_t pick = -1;
  for (int64_t i = 0; i < static_cast<int64_t>(eig.values.size()); ++i) {
    const double lam = eig.values[static_cast<size_t>(i)];
    if (std::fabs(lam - 0.75) < 0.05) pick = i;  // band [0.5, 1)
  }
  if (pick < 0) GTEST_SKIP() << "no eigenvalue near 0.75 in this graph";
  Matrix vec(g.n, 1, Device::kHost);
  for (int64_t r = 0; r < g.n; ++r) vec.at(r, 0) = eig.vectors.at(r, pick);
  const auto bands = SignalBandEnergy(norm, vec, 4);
  EXPECT_GT(bands[1], 0.6);
}

TEST(MeanFrequency, ConstantSignalIsZero) {
  graph::Graph g = MakeGraph(0.7);
  auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  Matrix ones(g.n, 1, Device::kHost);
  ones.Fill(1.0f);
  // The all-ones vector is not exactly the λ=0 eigenvector under symmetric
  // normalization, but it is close for near-regular graphs.
  EXPECT_LT(MeanSignalFrequency(norm, ones), 0.2);
}

TEST(MeanFrequency, WithinSpectrumBounds) {
  graph::Graph g = MakeGraph(0.3);
  auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  const double f = MeanSignalFrequency(norm, g.features);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 2.0);
}

TEST(MeanLabelFrequency, SeparatesHomophilyRegimes) {
  graph::Graph homo = MakeGraph(0.9);
  graph::Graph hetero = MakeGraph(0.05);
  auto nh = sparse::NormalizeAdjacency(homo.adj, 0.5);
  auto nt = sparse::NormalizeAdjacency(hetero.adj, 0.5);
  const double fh = MeanLabelFrequency(nh, homo.labels, homo.num_classes);
  const double ft = MeanLabelFrequency(nt, hetero.labels, hetero.num_classes);
  EXPECT_LT(fh, 0.45);
  EXPECT_GT(ft, fh + 0.3);
}

TEST(Recommendation, FollowsFrequencyBands) {
  EXPECT_STREQ(RecommendFilterFamily(0.2),
               "low-pass fixed (PPR/HK/Monomial)");
  EXPECT_STREQ(RecommendFilterFamily(0.6),
               "adaptive / filter bank (variable or bank filters)");
  EXPECT_STREQ(RecommendFilterFamily(0.9),
               "high-frequency capable (Horner/Chebyshev/variable)");
}

}  // namespace
}  // namespace sgnn::eval

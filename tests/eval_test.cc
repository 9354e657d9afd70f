// Tests for metrics, the Jacobi eigensolver, signals, and analysis helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "eval/analysis.h"
#include "eval/eigen.h"
#include "eval/metrics.h"
#include "eval/signals.h"
#include "eval/table.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::eval {
namespace {

TEST(Accuracy, PerfectAndChance) {
  Matrix logits(2, 2);
  logits.at(0, 1) = 1.0f;  // predicts 1
  logits.at(1, 0) = 1.0f;  // predicts 0
  std::vector<int32_t> labels = {1, 0};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
  labels = {0, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 0.0);
}

TEST(Accuracy, SubsetOnly) {
  Matrix logits(3, 2);
  logits.at(0, 1) = 1.0f;
  logits.at(1, 1) = 1.0f;
  logits.at(2, 0) = 1.0f;
  std::vector<int32_t> labels = {1, 0, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {1, 2}), 0.0);
}

TEST(RocAuc, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(RocAucFromScores({0.9, 0.8, 0.1, 0.2}, {1, 1, 0, 0}), 1.0);
}

TEST(RocAuc, ReversedScoresGiveZero) {
  EXPECT_DOUBLE_EQ(RocAucFromScores({0.1, 0.2, 0.9, 0.8}, {1, 1, 0, 0}), 0.0);
}

TEST(RocAuc, TiesGiveHalf) {
  EXPECT_DOUBLE_EQ(RocAucFromScores({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0}), 0.5);
}

TEST(RocAuc, DegenerateSingleClass) {
  EXPECT_DOUBLE_EQ(RocAucFromScores({0.5, 0.7}, {1, 1}), 0.5);
}

TEST(RocAuc, MatrixOverload) {
  Matrix logits(4, 2);
  logits.at(0, 1) = 2.0f;
  logits.at(1, 1) = 1.5f;
  logits.at(2, 1) = -1.0f;
  logits.at(3, 1) = -0.5f;
  std::vector<int32_t> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(RocAuc(logits, labels, {0, 1, 2, 3}), 1.0);
}

TEST(R2Score, PerfectFitIsOne) {
  Rng rng(1);
  Matrix t(10, 2);
  t.FillNormal(&rng);
  EXPECT_DOUBLE_EQ(R2Score(t, t), 1.0);
}

TEST(R2Score, MeanPredictionIsZero) {
  Matrix t(4, 1);
  t.at(0, 0) = -1;
  t.at(1, 0) = 1;
  t.at(2, 0) = -1;
  t.at(3, 0) = 1;
  Matrix pred(4, 1);  // predicts the mean (0)
  EXPECT_NEAR(R2Score(pred, t), 0.0, 1e-9);
}

TEST(Summarize, MeanAndStd) {
  const MeanStd s = Summarize({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(JacobiEigen, DiagonalMatrix) {
  Matrix a(3, 3);
  a.at(0, 0) = 3.0f;
  a.at(1, 1) = 1.0f;
  a.at(2, 2) = 2.0f;
  auto r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().values[0], 1.0, 1e-8);
  EXPECT_NEAR(r.value().values[1], 2.0, 1e-8);
  EXPECT_NEAR(r.value().values[2], 3.0, 1e-8);
}

TEST(JacobiEigen, TwoByTwoKnown) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0f;
  a.at(0, 1) = 1.0f;
  a.at(1, 0) = 1.0f;
  a.at(1, 1) = 2.0f;
  auto r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().values[0], 1.0, 1e-8);
  EXPECT_NEAR(r.value().values[1], 3.0, 1e-8);
}

TEST(JacobiEigen, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(JacobiEigen(a).ok());
}

TEST(JacobiEigen, ReconstructsMatrix) {
  Rng rng(5);
  Matrix a(8, 8);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      const auto v = static_cast<float>(rng.Normal());
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  auto r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  // A == U diag(λ) Uᵀ: apply to the identity columns via SpectralApply.
  Matrix eye(8, 8);
  for (int64_t i = 0; i < 8; ++i) eye.at(i, i) = 1.0f;
  Matrix rec = SpectralApply(r.value(), r.value().values, eye);
  EXPECT_TRUE(rec.AllClose(a, 1e-4f));
}

TEST(JacobiEigen, LaplacianSpectrumInZeroTwo) {
  Rng rng(9);
  sparse::EdgeList edges;
  for (int i = 0; i < 60; ++i) {
    edges.emplace_back(static_cast<int32_t>(rng.UniformInt(25)),
                       static_cast<int32_t>(rng.UniformInt(25)));
  }
  auto adj = sparse::BuildAdjacency(25, edges, true).MoveValue();
  auto norm = sparse::NormalizeAdjacency(adj, 0.5);
  Matrix lap = DenseLaplacian(norm);
  auto r = JacobiEigen(lap);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().values.front(), 0.0, 1e-5);
  EXPECT_LE(r.value().values.back(), 2.0 + 1e-5);
}

TEST(SpectralApply, IdentityResponseIsIdentity) {
  Rng rng(11);
  Matrix a(6, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      const auto v = static_cast<float>(rng.Normal());
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  auto eig = JacobiEigen(a).MoveValue();
  Matrix x(6, 3);
  x.FillNormal(&rng);
  std::vector<double> ones(6, 1.0);
  Matrix y = SpectralApply(eig, ones, x);
  EXPECT_TRUE(y.AllClose(x, 1e-4f));
}

TEST(Signals, FiveFunctionsWithPaperValues) {
  const auto& sig = RegressionSignals();
  ASSERT_EQ(sig.size(), 5u);
  // LOW peaks at 0, HIGH at 2, BAND at 1, REJECT dips at 1.
  auto find = [&](const std::string& name) {
    for (const auto& s : sig) {
      if (s.name == name) return s.fn;
    }
    return sig[0].fn;
  };
  EXPECT_NEAR(find("low")(0.0), 1.0, 1e-12);
  EXPECT_LT(find("low")(2.0), 1e-10);
  EXPECT_NEAR(find("high")(2.0), 1.0, 1e-10);
  EXPECT_NEAR(find("band")(1.0), 1.0, 1e-12);
  EXPECT_NEAR(find("reject")(1.0), 0.0, 1e-12);
  EXPECT_NEAR(find("combine")(0.5), 1.0, 1e-12);
}

TEST(Pca, RecoversDominantDirection) {
  Rng rng(13);
  // Points along direction (1, 1)/√2 with small orthogonal noise.
  Matrix x(200, 2);
  for (int64_t i = 0; i < 200; ++i) {
    const double t = rng.Normal() * 5.0;
    const double nse = rng.Normal() * 0.1;
    x.at(i, 0) = static_cast<float>(t + nse);
    x.at(i, 1) = static_cast<float>(t - nse);
  }
  Matrix proj = PcaProject(x, 1, &rng);
  // Variance of the projection should be close to the full variance.
  double var = 0.0, total = 0.0;
  for (int64_t i = 0; i < 200; ++i) {
    var += double(proj.at(i, 0)) * proj.at(i, 0);
    total += double(x.at(i, 0)) * x.at(i, 0) + double(x.at(i, 1)) * x.at(i, 1);
  }
  EXPECT_GT(var / total, 0.95);
}

TEST(Silhouette, SeparatedClustersScoreHigh) {
  Rng rng(15);
  Matrix x(100, 2);
  std::vector<int32_t> labels(100);
  for (int64_t i = 0; i < 100; ++i) {
    const int32_t y = i % 2;
    labels[static_cast<size_t>(i)] = y;
    x.at(i, 0) = static_cast<float>(y * 10.0 + rng.Normal() * 0.2);
    x.at(i, 1) = static_cast<float>(rng.Normal() * 0.2);
  }
  EXPECT_GT(SilhouetteScore(x, labels, &rng), 0.8);
}

TEST(Silhouette, RandomLabelsScoreNearZero) {
  Rng rng(17);
  Matrix x(100, 2);
  x.FillNormal(&rng);
  std::vector<int32_t> labels(100);
  for (auto& y : labels) y = static_cast<int32_t>(rng.UniformInt(2));
  EXPECT_NEAR(SilhouetteScore(x, labels, &rng), 0.0, 0.15);
}

TEST(IntraInter, SeparatedClustersBelowOne) {
  Rng rng(19);
  Matrix x(80, 2);
  std::vector<int32_t> labels(80);
  for (int64_t i = 0; i < 80; ++i) {
    const int32_t y = i % 2;
    labels[static_cast<size_t>(i)] = y;
    x.at(i, 0) = static_cast<float>(y * 8.0 + rng.Normal() * 0.3);
  }
  EXPECT_LT(IntraInterRatio(x, labels, &rng), 0.3);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(FmtMeanStd(86.58, 1.96), "86.58±1.96");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(sw.ElapsedMs(), 0.0);
}

}  // namespace
}  // namespace sgnn::eval

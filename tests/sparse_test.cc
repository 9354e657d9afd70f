// Unit tests for sparse graph storage, normalization, and propagation.

#include <gtest/gtest.h>

#include <cmath>

#include "sparse/adjacency.h"
#include "sparse/csr.h"
#include "sparse/edge_index.h"
#include "tensor/rng.h"

namespace sgnn::sparse {
namespace {

/// 4-node path graph with self loops: 0-1-2-3.
CsrMatrix PathGraph() {
  EdgeList edges = {{0, 1}, {1, 2}, {2, 3}};
  auto r = BuildAdjacency(4, edges, /*add_self_loops=*/true);
  EXPECT_TRUE(r.ok());
  return r.MoveValue();
}

TEST(BuildAdjacency, SymmetrizesAndAddsSelfLoops) {
  CsrMatrix a = PathGraph();
  EXPECT_EQ(a.n(), 4);
  // Each internal node: 2 neighbors + self; ends: 1 neighbor + self.
  EXPECT_EQ(a.nnz(), 2 + 3 + 3 + 2);
  EXPECT_EQ(a.RowDegree(0), 2);
  EXPECT_EQ(a.RowDegree(1), 3);
}

TEST(BuildAdjacency, DeduplicatesParallelEdges) {
  EdgeList edges = {{0, 1}, {1, 0}, {0, 1}};
  auto r = BuildAdjacency(2, edges, /*add_self_loops=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().nnz(), 2);
}

TEST(BuildAdjacency, RejectsOutOfRangeEndpoint) {
  EdgeList edges = {{0, 5}};
  auto r = BuildAdjacency(3, edges, true);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuildAdjacency, RejectsEmptyGraph) {
  EXPECT_FALSE(BuildAdjacency(0, {}, true).ok());
}

TEST(CsrMatrix, RowSums) {
  CsrMatrix a = PathGraph();
  const auto sums = a.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 2.0);
  EXPECT_DOUBLE_EQ(sums[1], 3.0);
}

TEST(CsrMatrix, SpMMIdentityLike) {
  // Diagonal CSR acts as identity.
  CsrMatrix eye(3, {0, 1, 2, 3}, {0, 1, 2}, {1.0f, 1.0f, 1.0f});
  Matrix x(3, 2);
  x.at(0, 0) = 1;
  x.at(1, 1) = 2;
  x.at(2, 0) = 3;
  Matrix y(3, 2);
  eye.SpMM(x, &y);
  EXPECT_TRUE(y.AllClose(x));
}

TEST(CsrMatrix, SpMMMatchesDense) {
  Rng rng(3);
  CsrMatrix a = PathGraph();
  Matrix x(4, 3);
  x.FillNormal(&rng);
  Matrix y(4, 3);
  a.SpMM(x, &y);
  // Dense reference.
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      double acc = 0.0;
      for (int64_t p = a.indptr()[i]; p < a.indptr()[i + 1]; ++p) {
        acc += a.values()[p] * x.at(a.indices()[p], j);
      }
      EXPECT_NEAR(y.at(i, j), acc, 1e-5);
    }
  }
}

TEST(CsrMatrix, SpMVMatchesSpMM) {
  Rng rng(5);
  CsrMatrix a = PathGraph();
  Matrix x(4, 1);
  x.FillNormal(&rng);
  Matrix y(4, 1);
  a.SpMM(x, &y);
  std::vector<float> xv(4), yv;
  for (int64_t i = 0; i < 4; ++i) xv[i] = x.at(i, 0);
  a.SpMV(xv, &yv);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(yv[i], y.at(i, 0), 1e-5);
}

TEST(Normalize, SymmetricRowsPositiveAndBounded) {
  CsrMatrix a = PathGraph();
  CsrMatrix norm = NormalizeAdjacency(a, 0.5);
  const auto sums = norm.RowSums();
  // Row sums of D̄^{-1/2}ĀD̄^{-1/2} may exceed 1 but are bounded by √d_max.
  for (const double s : sums) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, std::sqrt(3.0) + 1e-6);
  }
}

TEST(Normalize, RandomWalkRowsSumToOne) {
  CsrMatrix a = PathGraph();
  // ρ = 1: D̄^0 Ā D̄^{-1} has columns summing to 1; ρ = 0 gives row-stochastic
  // D̄^{-1} Ā.
  CsrMatrix norm = NormalizeAdjacency(a, 0.0);
  const auto sums = norm.RowSums();
  for (const double s : sums) EXPECT_NEAR(s, 1.0, 1e-6);
}

TEST(Normalize, SymmetricMatrixIsSymmetric) {
  CsrMatrix a = PathGraph();
  CsrMatrix norm = NormalizeAdjacency(a, 0.5);
  // Check value symmetry entry-wise.
  for (int64_t i = 0; i < norm.n(); ++i) {
    for (int64_t p = norm.indptr()[i]; p < norm.indptr()[i + 1]; ++p) {
      const int32_t j = norm.indices()[p];
      // Find (j, i).
      double w_ji = -1;
      for (int64_t q = norm.indptr()[j]; q < norm.indptr()[j + 1]; ++q) {
        if (norm.indices()[q] == i) w_ji = norm.values()[q];
      }
      EXPECT_NEAR(norm.values()[p], w_ji, 1e-6);
    }
  }
}

TEST(Normalize, SpectrumBoundedByOne) {
  // Power iteration on symmetric normalized adjacency: |λ| <= 1.
  Rng rng(7);
  EdgeList edges;
  for (int i = 0; i < 30; ++i) {
    edges.emplace_back(static_cast<int32_t>(rng.UniformInt(20)),
                       static_cast<int32_t>(rng.UniformInt(20)));
  }
  auto a = BuildAdjacency(20, edges, true).MoveValue();
  CsrMatrix norm = NormalizeAdjacency(a, 0.5);
  std::vector<float> v(20);
  for (auto& e : v) e = static_cast<float>(rng.Normal());
  std::vector<float> w;
  double lambda = 0.0;
  for (int it = 0; it < 100; ++it) {
    norm.SpMV(v, &w);
    double norm2 = 0.0;
    for (const float e : w) norm2 += double(e) * e;
    lambda = std::sqrt(norm2);
    if (lambda < 1e-12) break;
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<float>(w[i] / lambda);
  }
  EXPECT_LE(lambda, 1.0 + 1e-4);
}

TEST(Degrees, MatchRowNnz) {
  CsrMatrix a = PathGraph();
  const auto deg = Degrees(a);
  EXPECT_EQ(deg[0], 2);
  EXPECT_EQ(deg[1], 3);
}

TEST(EdgeIndex, PropagateMatchesSpMM) {
  Rng rng(11);
  EdgeList edges;
  for (int i = 0; i < 40; ++i) {
    edges.emplace_back(static_cast<int32_t>(rng.UniformInt(15)),
                       static_cast<int32_t>(rng.UniformInt(15)));
  }
  auto a = BuildAdjacency(15, edges, true).MoveValue();
  CsrMatrix norm = NormalizeAdjacency(a, 0.5);
  EdgeIndex ei(norm);
  Matrix x(15, 4);
  x.FillNormal(&rng);
  Matrix y_sp(15, 4), y_ei(15, 4);
  norm.SpMM(x, &y_sp);
  ei.PropagateGatherScatter(x, &y_ei);
  EXPECT_TRUE(y_sp.AllClose(y_ei, 1e-4f));
}

TEST(EdgeIndex, MessageBufferCostsEdgeMemory) {
  auto& t = DeviceTracker::Global();
  CsrMatrix a = PathGraph();
  EdgeIndex ei(a, Device::kAccel);
  t.ResetAll();
  // NOLINTNEXTLINE(device-pairing): tracker accounting test drives OnAlloc directly; ResetAll below restores the zero baseline
  t.OnAlloc(Device::kAccel, 0);  // establish baseline
  Matrix x(4, 8, Device::kHost);
  Matrix y(4, 8, Device::kHost);
  t.ResetPeak();
  ei.PropagateGatherScatter(x, &y);
  // Peak accel must include the m x F message buffer.
  EXPECT_GE(t.peak_bytes(Device::kAccel),
            static_cast<size_t>(a.nnz()) * 8 * sizeof(float));
  t.ResetAll();
}

TEST(CsrMatrix, DeviceAccounting) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  {
    CsrMatrix a = PathGraph();
    const size_t host_bytes = t.live_bytes(Device::kHost);
    EXPECT_EQ(host_bytes, a.bytes());
    a.MoveToDevice(Device::kAccel);
    EXPECT_EQ(t.live_bytes(Device::kHost), 0u);
    EXPECT_EQ(t.live_bytes(Device::kAccel), a.bytes());
  }
  EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);
  t.ResetAll();
}

}  // namespace
}  // namespace sgnn::sparse

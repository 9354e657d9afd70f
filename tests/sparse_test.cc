// Unit tests for sparse graph storage, normalization, and propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/filter.h"
#include "sparse/adjacency.h"
#include "sparse/csr.h"
#include "sparse/edge_index.h"
#include "sparse/spmm_kernels.h"
#include "tensor/cpu.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
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
  // The bad endpoint may sit after valid edges, on either side, either sign.
  for (const EdgeList& edges :
       {EdgeList{{0, 5}}, EdgeList{{0, 1}, {1, 2}, {3, 0}},
        EdgeList{{0, 1}, {-1, 2}}, EdgeList{{2, 1}, {1, -4}}}) {
    for (const bool self_loops : {false, true}) {
      auto r = BuildAdjacency(3, edges, self_loops);
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(BuildAdjacency, RejectsEmptyGraph) {
  for (const int64_t n : {0, -3}) {
    auto r = BuildAdjacency(n, {}, true);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

/// The sort-unique build that the counting build replaced, verbatim: the
/// reference BuildAdjacency must match bit for bit.
Result<CsrMatrix> SortUniqueBuildAdjacency(int64_t n, const EdgeList& edges,
                                           bool add_self_loops) {
  if (n <= 0) return Status::InvalidArgument("BuildAdjacency: n must be > 0");
  // Symmetrized, deduplicated edge set built via sort-unique over directed
  // pairs. Memory: O(m) int64 keys.
  std::vector<int64_t> keys;
  keys.reserve(edges.size() * 2 + (add_self_loops ? static_cast<size_t>(n) : 0));
  for (const auto& [u, v] : edges) {
    if (u < 0 || v < 0 || u >= n || v >= n) {
      return Status::InvalidArgument("BuildAdjacency: edge endpoint out of range");
    }
    keys.push_back(static_cast<int64_t>(u) * n + v);
    keys.push_back(static_cast<int64_t>(v) * n + u);
  }
  if (add_self_loops) {
    for (int64_t i = 0; i < n; ++i) keys.push_back(i * n + i);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<int64_t> indptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int32_t> indices(keys.size());
  std::vector<float> values(keys.size(), 1.0f);
  for (size_t p = 0; p < keys.size(); ++p) {
    const int64_t row = keys[p] / n;
    indptr[static_cast<size_t>(row) + 1]++;
    indices[p] = static_cast<int32_t>(keys[p] % n);
  }
  for (int64_t i = 0; i < n; ++i)
    indptr[static_cast<size_t>(i) + 1] += indptr[static_cast<size_t>(i)];
  return CsrMatrix(n, std::move(indptr), std::move(indices), std::move(values));
}

/// Builds `edges` both ways, with and without self loops, and expects the
/// same CSR arrays from each.
void ExpectMatchesSortUnique(int64_t n, const EdgeList& edges,
                             const std::string& what) {
  for (const bool self_loops : {false, true}) {
    auto got = BuildAdjacency(n, edges, self_loops);
    auto want = SortUniqueBuildAdjacency(n, edges, self_loops);
    ASSERT_TRUE(got.ok() && want.ok()) << what;
    const std::string where =
        what + (self_loops ? " +self loops" : " -self loops");
    EXPECT_EQ(got.value().n(), want.value().n()) << where;
    EXPECT_EQ(got.value().indptr(), want.value().indptr()) << where;
    EXPECT_EQ(got.value().indices(), want.value().indices()) << where;
    EXPECT_EQ(got.value().values(), want.value().values()) << where;
  }
}

TEST(BuildAdjacency, MatchesSortUniqueReferenceOnEdgeCases) {
  ExpectMatchesSortUnique(1, {}, "n=1, no edges");
  ExpectMatchesSortUnique(1, {{0, 0}, {0, 0}}, "n=1, repeated self loop");
  ExpectMatchesSortUnique(6, {}, "no edges");
  ExpectMatchesSortUnique(6, {{4, 1}}, "one edge, four isolated nodes");
  ExpectMatchesSortUnique(3, {{2, 0}, {0, 2}, {2, 0}, {1, 1}, {1, 1}},
                          "both directions, duplicates, a self loop");
}

TEST(BuildAdjacency, MatchesSortUniqueReferenceOnRandomEdgeLists) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<int64_t>(1 + rng.UniformInt(80));
    // Every third list touches only the first half of the nodes, so the
    // rest are isolated; odd trials draw no self-loop edges.
    const int64_t reach = trial % 3 == 0 ? (n + 1) / 2 : n;
    const bool loop_edges = trial % 2 == 0;
    const auto draws = rng.UniformInt(static_cast<uint64_t>(4 * n + 1));
    EdgeList edges;
    for (uint64_t k = 0; k < draws; ++k) {
      const auto u = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(reach)));
      const auto v = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(reach)));
      if (u == v && !loop_edges) continue;
      edges.emplace_back(u, v);
      if (rng.Bernoulli(0.3)) {  // a duplicate, in either direction
        const auto e = edges[rng.UniformInt(edges.size())];
        const bool flip = rng.Bernoulli(0.5);
        edges.emplace_back(flip ? e.second : e.first,
                           flip ? e.first : e.second);
      }
    }
    ExpectMatchesSortUnique(n, edges, "trial " + std::to_string(trial));
  }
  // Long rows: half of the endpoints hit one of three hubs.
  EdgeList edges;
  for (int k = 0; k < 20000; ++k) {
    const auto u = static_cast<int32_t>(rng.Bernoulli(0.5)
                                            ? rng.UniformInt(3)
                                            : rng.UniformInt(2000));
    edges.emplace_back(u, static_cast<int32_t>(rng.UniformInt(2000)));
  }
  ExpectMatchesSortUnique(2000, edges, "hubs");
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

// The SpMM row kernels exist once per ISA (sparse/spmm_kernels.h). Both
// twins, the public SpMM / SpMMAffine and the CSR operator's ApplyAffine
// must give the bits of the row loop SpMM ran before they existed, kept
// here as the reference, followed by the op-graph's old replay of a fused
// hop's tail: Scale(ca), Axpy(ci, in1), Axpy(cp, in2).

/// out = a·x: the scalar row loop, loading and storing the output row once
/// per nonzero.
void RowLoopSpmm(const CsrMatrix& a, const Matrix& x, Matrix* out) {
  const int64_t f = x.cols();
  for (int64_t i = 0; i < a.n(); ++i) {
    float* orow = out->row(i);
    std::memset(orow, 0, static_cast<size_t>(f) * sizeof(float));
    for (int64_t p = a.indptr()[i]; p < a.indptr()[i + 1]; ++p) {
      const float w = a.values()[p];
      const float* xrow = x.row(a.indices()[p]);
      for (int64_t j = 0; j < f; ++j) orow[j] += w * xrow[j];
    }
  }
}

/// A fused hop's tail; `affine` false is a plain SpMM.
struct SpmmTail {
  const char* name;
  bool affine;
  bool with_in1;
  bool with_in2;
};

// The last case, ca·s + cp·in2 without in1, is the one-term tail with its
// term in the second slot.
const SpmmTail kSpmmTails[] = {
    {"none", false, false, false},
    {"ca", true, false, false},
    {"ca+ci*in1", true, true, false},
    {"ca+ci*in1+cp*in2", true, true, true},
    {"ca+cp*in2", true, false, true},
};
constexpr float kCa = 1.7f, kCi = -0.9f, kCp = 0.3f;

/// Operands of one shape: a has exactly 3n nonzeros, so its chunk grain is
/// a function of F alone.
struct SpmmIsaCase {
  int64_t n, f;
  CsrMatrix a;
  Matrix x, in1, in2;
};

/// Rows per chunk of CsrMatrix::SpMM at 3 nonzeros per row: ~64k
/// multiply-adds.
int64_t SpmmRowGrain(int64_t f) {
  return parallel::GrainForFlops((3 + 1) * f, int64_t{1} << 16);
}

/// n x n with random entries, except:
///   row 0      empty;
///   row 1      three products that are all -0.0 (weight -0 on x's row
///              n-1, which is all ones), summing to +0 only from a +0 seed;
///   row 2      2^60·1 - 2^60·1 + 1·x[0], which cancels exactly only when
///              the nonzeros are added in stored order;
///   row n-1    six entries, so nnz = 3n.
CsrMatrix SpmmIsaMatrix(int64_t n, Rng* rng) {
  std::vector<int64_t> indptr = {0};
  std::vector<int32_t> indices;
  std::vector<float> values;
  const auto add = [&](int64_t col, float w) {
    indices.push_back(static_cast<int32_t>(col));
    values.push_back(w);
  };
  for (int64_t i = 0; i < n; ++i) {
    if (i == 1) {
      for (int k = 0; k < 3; ++k) add(n - 1, -0.0f);
    } else if (i == 2) {
      add(n - 1, 0x1p60f);
      add(n - 1, -0x1p60f);
      add(0, 1.0f);
    } else if (i != 0) {
      for (int k = 0; k < (i == n - 1 ? 6 : 3); ++k) {
        add(static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(n))),
            static_cast<float>(rng->Normal()));
      }
    }
    indptr.push_back(static_cast<int64_t>(indices.size()));
  }
  return CsrMatrix(n, std::move(indptr), std::move(indices),
                   std::move(values));
}

Matrix NormalMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  m.FillNormal(rng);
  return m;
}

/// Calls `check` on each case in turn. F crosses every vector tail and
/// each specialized width; n lands one row either side of the row grain,
/// so a run ends on a partial chunk.
template <typename Check>
void ForEachSpmmIsaCase(Check check) {
  Rng rng(21);
  for (int64_t f : {1, 4, 8, 12, 16, 32, 48, 64}) {
    const int64_t grain = SpmmRowGrain(f);
    for (int64_t n : {grain - 1, grain + 1}) {
      SpmmIsaCase c{n,
                    f,
                    SpmmIsaMatrix(n, &rng),
                    NormalMatrix(n, f, &rng),
                    NormalMatrix(n, f, &rng),
                    NormalMatrix(n, f, &rng)};
      ASSERT_EQ(c.a.nnz(), 3 * n);
      float* ones = c.x.row(n - 1);
      std::fill(ones, ones + f, 1.0f);
      check(c);
    }
  }
}

/// The row loop, then the old replay of the tail.
Matrix Reference(const SpmmIsaCase& c, const SpmmTail& t) {
  Matrix out(c.n, c.f);
  RowLoopSpmm(c.a, c.x, &out);
  if (!t.affine) return out;
  ops::Scale(kCa, &out);
  if (t.with_in1) ops::Axpy(kCi, c.in1, &out);
  if (t.with_in2) ops::Axpy(kCp, c.in2, &out);
  return out;
}

/// Runs one twin over every row in grain-sized chunks on the pool.
Matrix RunTwin(void (*rows)(const spmm::RowArgs&, int64_t, int64_t),
               const SpmmIsaCase& c, const SpmmTail& t) {
  Matrix out(c.n, c.f);
  out.Fill(1.0f);  // the kernels must overwrite, not accumulate
  spmm::RowArgs args;
  args.indptr = c.a.indptr().data();
  args.indices = c.a.indices().data();
  args.values = c.a.values().data();
  args.x = c.x.data();
  args.out = out.data();
  args.f = c.f;
  args.affine = t.affine;
  args.ca = kCa;
  // The twins take a one-term tail in the first slot (SpMMAffine moves
  // ca·s + cp·in2 there).
  if (t.with_in1) {
    args.in1 = c.in1.data();
    args.ci = kCi;
    if (t.with_in2) {
      args.in2 = c.in2.data();
      args.cp = kCp;
    }
  } else if (t.with_in2) {
    args.in1 = c.in2.data();
    args.ci = kCp;
  }
  parallel::ParallelFor(0, c.n, SpmmRowGrain(c.f),
                        [&](int64_t lo, int64_t hi) { rows(args, lo, hi); });
  return out;
}

/// An operator without a fused kernel: ApplyAffine is the default replay.
class ReplayOperator : public opgraph::SpmmOperator {
 public:
  explicit ReplayOperator(const CsrMatrix* a) : a_(a) {}
  int64_t n() const override { return a_->n(); }
  void Apply(const Matrix& x, Matrix* out) const override {
    a_->SpMM(x, out);
  }

 private:
  const CsrMatrix* a_;
};

/// Runs `op`'s public entry point for the tail.
Matrix RunOperator(const opgraph::SpmmOperator& op, const SpmmIsaCase& c,
                   const SpmmTail& t) {
  Matrix out(c.n, c.f);
  out.Fill(1.0f);
  if (t.affine) {
    op.ApplyAffine(c.x, kCa, t.with_in1 ? &c.in1 : nullptr, kCi,
                   t.with_in2 ? &c.in2 : nullptr, kCp, &out);
  } else {
    op.Apply(c.x, &out);
  }
  return out;
}

bool SameBits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.bytes()) == 0;
}

std::string SpmmCaseName(const SpmmIsaCase& c, const SpmmTail& t,
                         int threads) {
  return "n=" + std::to_string(c.n) + " f=" + std::to_string(c.f) +
         " tail=" + t.name + " threads=" + std::to_string(threads);
}

TEST(SpmmIsa, BaselineAndPublicMatchRowLoop) {
  ForEachSpmmIsaCase([](const SpmmIsaCase& c) {
    const filters::CsrSpmmOperator csr(&c.a);
    const ReplayOperator replay(&c.a);
    for (const SpmmTail& t : kSpmmTails) {
      const Matrix ref = Reference(c, t);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(SpmmCaseName(c, t, threads));
        parallel::SetNumThreads(threads);
        EXPECT_TRUE(SameBits(RunTwin(spmm::SpmmRowsBaseline, c, t), ref))
            << "baseline twin";
        EXPECT_TRUE(SameBits(RunOperator(csr, c, t), ref))
            << "CsrMatrix::SpMM / SpMMAffine";
        EXPECT_TRUE(SameBits(RunOperator(replay, c, t), ref))
            << "default ApplyAffine replay";
      }
    }
  });
  parallel::SetNumThreads(0);
}

TEST(SpmmIsa, Avx2MatchesBaselineAndRowLoop) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "CPU has no AVX2";
  ForEachSpmmIsaCase([](const SpmmIsaCase& c) {
    for (const SpmmTail& t : kSpmmTails) {
      const Matrix ref = Reference(c, t);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(SpmmCaseName(c, t, threads));
        parallel::SetNumThreads(threads);
        const Matrix avx2 = RunTwin(spmm::SpmmRowsAvx2, c, t);
        EXPECT_TRUE(SameBits(avx2, RunTwin(spmm::SpmmRowsBaseline, c, t)))
            << "AVX2 vs baseline twin";
        EXPECT_TRUE(SameBits(avx2, ref)) << "AVX2 twin vs row loop";
      }
    }
  });
  parallel::SetNumThreads(0);
}

}  // namespace
}  // namespace sgnn::sparse

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/cpu.h"
#include "tensor/gemm_kernels.h"
#include "tensor/parallel.h"

namespace sgnn::ops {

namespace gemm {
namespace {

// The GEMM kernel bodies. always_inline puts a copy into each ISA twin
// below, where a float vector is 4 lanes (baseline) or 8 lanes (AVX2) and a
// double vector half as many. Rows are only float-aligned, so every vector
// load and store goes through memcpy.

using Vec4f = float __attribute__((vector_size(16)));
using Vec8f = float __attribute__((vector_size(32)));
using Vec2d = double __attribute__((vector_size(16)));
using Vec4d = double __attribute__((vector_size(32)));

// One twin's vector types, F float and D double. Each is named outright,
// because GCC drops vector_size from an alias whose element type depends
// on a template parameter.
struct BaselineIsa {
  using F = Vec4f;
  using D = Vec2d;
};
struct Avx2Isa {
  using F = Vec8f;
  using D = Vec4d;
};

/// Gemm lists a row's nonzero kk in blocks of this many.
constexpr int64_t kNonzeroBlock = 64;

/// Gemm rows at a compile-time width M: a row's M sums stay in vector
/// registers while the kernel walks the row's nonzero kk in ascending
/// order, and the row is stored once. The nonzero list is built without a
/// branch, and walking it is the `a[i][kk] == 0` skip.
template <typename Isa, int64_t M>
[[gnu::always_inline]] inline void GemmFixedWidth(
    const float* __restrict a, const float* __restrict b,
    float* __restrict out, int64_t lo, int64_t hi, int64_t k) {
  using V = typename Isa::F;
  constexpr int64_t kLanes = sizeof(V) / sizeof(float);
  constexpr int64_t kVecs = M / kLanes;
  int64_t nonzero[kNonzeroBlock] = {};
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    V acc[kVecs];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) acc[v] = V{};  // +0.0f in every lane
    for (int64_t k0 = 0; k0 < k; k0 += kNonzeroBlock) {
      const int64_t k1 = std::min(k, k0 + kNonzeroBlock);
      int64_t count = 0;
      for (int64_t kk = k0; kk < k1; ++kk) {
        nonzero[count] = kk;
        count += arow[kk] != 0.0f;
      }
      for (int64_t p = 0; p < count; ++p) {
        const int64_t kk = nonzero[p];
        const float av = arow[kk];
        const float* brow = b + kk * M;
#pragma GCC unroll 16
        for (int64_t v = 0; v < kVecs; ++v) {
          V bv;
          std::memcpy(&bv, brow + v * kLanes, sizeof bv);
          acc[v] += av * bv;
        }
      }
    }
    float* orow = out + i * M;
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(orow + v * kLanes, &acc[v], sizeof acc[v]);
    }
  }
}

/// GemmTransA output rows [i0, i0 + R) at a compile-time width M: R x M
/// sums stay in vector registers across every kk. `a` is read in place,
/// R adjacent floats of its row kk at a time. A zero a[kk][i] adds its
/// product masked to +0 instead of skipping it. That gives the bits of the
/// skip: a sum that starts at +0 never becomes −0 (a float sum is −0 only
/// when both addends are), and s + (+0) == s for every other s, inf and
/// NaN included, whatever b holds.
template <typename Isa, int64_t M, int64_t R>
[[gnu::always_inline]] inline void TransATile(const float* __restrict a,
                                              const float* __restrict b,
                                              float* __restrict out,
                                              int64_t i0, int64_t k,
                                              int64_t n) {
  using V = typename Isa::F;
  constexpr int64_t kLanes = sizeof(V) / sizeof(float);
  constexpr int64_t kVecs = M / kLanes;
  V acc[R][kVecs];
#pragma GCC unroll 16
  for (int64_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) acc[r][v] = V{};
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * n + i0;
    const float* brow = b + kk * M;
    V bv[kVecs];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], brow + v * kLanes, sizeof bv[v]);
    }
#pragma GCC unroll 16
    for (int64_t r = 0; r < R; ++r) {
      // a[kk][i] in every lane (+0 + a is a, except that −0 becomes +0,
      // whose product is masked anyway). `keep` is all ones in the lanes
      // where a != 0, NaN included; a vector ?: computes both arms, so
      // there is no branch.
      const V av = V{} + arow[r];
      const auto keep = av != V{};
#pragma GCC unroll 16
      for (int64_t v = 0; v < kVecs; ++v) {
        acc[r][v] += keep ? av * bv[v] : V{};
      }
    }
  }
#pragma GCC unroll 16
  for (int64_t r = 0; r < R; ++r) {
    float* orow = out + (i0 + r) * M;
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(orow + v * kLanes, &acc[r][v], sizeof acc[r][v]);
    }
  }
}

/// GemmTransA rows at a compile-time width M: tiles of
/// R = max(1, kMaxTileRows / (M / lanes)) rows, which hold at most
/// kMaxTileRows vector accumulators when a row fits in that many, then the
/// rows left over one at a time.
template <typename Isa, int64_t M>
[[gnu::always_inline]] inline void TransAFixedWidth(
    const float* __restrict a, const float* __restrict b,
    float* __restrict out, int64_t lo, int64_t hi, int64_t k, int64_t n) {
  constexpr int64_t kVecs = M / (sizeof(typename Isa::F) / sizeof(float));
  constexpr int64_t kRows = std::max<int64_t>(1, kMaxTileRows / kVecs);
  int64_t i = lo;
  for (; i + kRows <= hi; i += kRows) {
    TransATile<Isa, M, kRows>(a, b, out, i, k, n);
  }
  for (; i < hi; ++i) TransATile<Isa, M, 1>(a, b, out, i, k, n);
}

/// Double vectors one GemmTransB block holds across kk.
constexpr int64_t kTransBBlockVecs = 8;

/// GemmTransB rows at a compile-time width M: a row's M double sums run in
/// blocks of up to kTransBBlockVecs vectors, each held in registers across
/// every kk and rounded to float once, at the store.
template <typename Isa, int64_t M>
[[gnu::always_inline]] inline void TransBFixedWidth(
    const float* __restrict a, const double* __restrict bt,
    float* __restrict out, int64_t lo, int64_t hi, int64_t k) {
  using D = typename Isa::D;
  constexpr int64_t kLanes = sizeof(D) / sizeof(double);
  constexpr int64_t kVecs = M / kLanes;
  constexpr int64_t kBlock = std::min(kVecs, kTransBBlockVecs);
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * M;
    for (int64_t v0 = 0; v0 < kVecs; v0 += kBlock) {
      D acc[kBlock];
#pragma GCC unroll 16
      for (int64_t v = 0; v < kBlock; ++v) acc[v] = D{};
      for (int64_t kk = 0; kk < k; ++kk) {
        const double av = arow[kk];
        const double* btrow = bt + kk * M + v0 * kLanes;
#pragma GCC unroll 16
        for (int64_t v = 0; v < kBlock; ++v) {
          D bv;
          std::memcpy(&bv, btrow + v * kLanes, sizeof bv);
          acc[v] += av * bv;
        }
      }
#pragma GCC unroll 16
      for (int64_t v = 0; v < kBlock; ++v) {
#pragma GCC unroll 8
        for (int64_t l = 0; l < kLanes; ++l) {
          orow[(v0 + v) * kLanes + l] = static_cast<float>(acc[v][l]);
        }
      }
    }
  }
}

// The row loops every other width runs. The compiler vectorizes their j
// loops, which load and store the output row once per kk.

[[gnu::always_inline]] inline void GemmAnyWidth(
    const float* __restrict a, const float* __restrict b,
    float* __restrict out, int64_t lo, int64_t hi, int64_t k, int64_t m) {
  // i-k-j: within a row, stream through b and out contiguously.
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * m;
    std::fill(orow, orow + m, 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

[[gnu::always_inline]] inline void TransAAnyWidth(
    const float* __restrict a, const float* __restrict b,
    float* __restrict out, int64_t lo, int64_t hi, int64_t k, int64_t n,
    int64_t m) {
  // kk-outer streams a and b row by row; each element still accumulates
  // with kk ascending.
  std::fill(out + lo * m, out + hi * m, 0.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * n;
    const float* brow = b + kk * m;
    for (int64_t i = lo; i < hi; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* orow = out + i * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

[[gnu::always_inline]] inline void TransBAnyWidth(
    const float* __restrict a, const double* __restrict bt,
    float* __restrict out, int64_t lo, int64_t hi, int64_t k, int64_t m) {
  // The m dot products of a row run side by side in `acc`, one lane per
  // output column, instead of one after another: each is still its own
  // kk-ascending double sum, but the sums no longer wait on each other.
  std::vector<double> lanes(static_cast<size_t>(m));
  double* __restrict acc = lanes.data();
  for (int64_t i = lo; i < hi; ++i) {
    const float* arow = a + i * k;
    std::fill(acc, acc + m, 0.0);
    for (int64_t kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      const double* btrow = bt + kk * m;
      for (int64_t j = 0; j < m; ++j) acc[j] += av * btrow[j];
    }
    float* orow = out + i * m;
    for (int64_t j = 0; j < m; ++j) orow[j] = static_cast<float>(acc[j]);
  }
}

template <typename Isa>
[[gnu::always_inline]] inline void GemmRowsBody(const float* a,
                                                const float* b, float* out,
                                                int64_t lo, int64_t hi,
                                                int64_t k, int64_t m) {
  switch (m) {
    case 8:
      return GemmFixedWidth<Isa, 8>(a, b, out, lo, hi, k);
    case 16:
      return GemmFixedWidth<Isa, 16>(a, b, out, lo, hi, k);
    case 32:
      return GemmFixedWidth<Isa, 32>(a, b, out, lo, hi, k);
    case 64:
      return GemmFixedWidth<Isa, 64>(a, b, out, lo, hi, k);
    default:
      return GemmAnyWidth(a, b, out, lo, hi, k, m);
  }
}

template <typename Isa>
[[gnu::always_inline]] inline void TransARowsBody(const float* a,
                                                  const float* b, float* out,
                                                  int64_t lo, int64_t hi,
                                                  int64_t k, int64_t n,
                                                  int64_t m) {
  switch (m) {
    case 8:
      return TransAFixedWidth<Isa, 8>(a, b, out, lo, hi, k, n);
    case 16:
      return TransAFixedWidth<Isa, 16>(a, b, out, lo, hi, k, n);
    case 32:
      return TransAFixedWidth<Isa, 32>(a, b, out, lo, hi, k, n);
    case 64:
      return TransAFixedWidth<Isa, 64>(a, b, out, lo, hi, k, n);
    default:
      return TransAAnyWidth(a, b, out, lo, hi, k, n, m);
  }
}

template <typename Isa>
[[gnu::always_inline]] inline void TransBRowsBody(const float* a,
                                                  const double* bt,
                                                  float* out, int64_t lo,
                                                  int64_t hi, int64_t k,
                                                  int64_t m) {
  switch (m) {
    case 8:
      return TransBFixedWidth<Isa, 8>(a, bt, out, lo, hi, k);
    case 16:
      return TransBFixedWidth<Isa, 16>(a, bt, out, lo, hi, k);
    case 32:
      return TransBFixedWidth<Isa, 32>(a, bt, out, lo, hi, k);
    case 64:
      return TransBFixedWidth<Isa, 64>(a, bt, out, lo, hi, k);
    default:
      return TransBAnyWidth(a, bt, out, lo, hi, k, m);
  }
}

}  // namespace

void GemmRowsBaseline(const float* a, const float* b, float* out, int64_t lo,
                      int64_t hi, int64_t k, int64_t m) {
  GemmRowsBody<BaselineIsa>(a, b, out, lo, hi, k, m);
}

SGNN_TARGET_AVX2 void GemmRowsAvx2(const float* a, const float* b, float* out,
                                   int64_t lo, int64_t hi, int64_t k,
                                   int64_t m) {
  GemmRowsBody<Avx2Isa>(a, b, out, lo, hi, k, m);
}

void GemmTransARowsBaseline(const float* a, const float* b, float* out,
                            int64_t lo, int64_t hi, int64_t k, int64_t n,
                            int64_t m) {
  TransARowsBody<BaselineIsa>(a, b, out, lo, hi, k, n, m);
}

SGNN_TARGET_AVX2 void GemmTransARowsAvx2(const float* a, const float* b,
                                         float* out, int64_t lo, int64_t hi,
                                         int64_t k, int64_t n, int64_t m) {
  TransARowsBody<Avx2Isa>(a, b, out, lo, hi, k, n, m);
}

void GemmTransBRowsBaseline(const float* a, const double* bt, float* out,
                            int64_t lo, int64_t hi, int64_t k, int64_t m) {
  TransBRowsBody<BaselineIsa>(a, bt, out, lo, hi, k, m);
}

SGNN_TARGET_AVX2 void GemmTransBRowsAvx2(const float* a, const double* bt,
                                         float* out, int64_t lo, int64_t hi,
                                         int64_t k, int64_t m) {
  TransBRowsBody<Avx2Isa>(a, bt, out, lo, hi, k, m);
}

}  // namespace gemm

namespace {

/// Elements per chunk for O(1)-per-element kernels (axpy, add, relu, ...):
/// large enough that dispatch overhead is negligible, small enough that a
/// typical n x F representation still splits across threads.
constexpr int64_t kElementGrain = int64_t{1} << 15;

/// Rows per chunk for kernels doing `row_flops` work per row — the shared
/// ~64k-flops-per-chunk target (docs/PERFORMANCE.md).
int64_t RowGrain(int64_t row_flops) {
  return parallel::GrainForFlops(row_flops, int64_t{1} << 16);
}

/// The AVX2 twins when the CPU has AVX2, else the baseline; chosen once.
const gemm::RowKernels& ActiveRowKernels() {
  static const gemm::RowKernels& kernels =
      CpuHasAvx2() ? gemm::kAvx2Kernels : gemm::kBaselineKernels;
  return kernels;
}

}  // namespace

// The GEMMs are row-partitioned over `out`, and every output element
// accumulates with kk ascending inside one chunk, so any thread count gives
// the bits of the serial loop.

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.cols() == b.rows(), "Gemm: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == a.rows() && out->cols() == b.cols(),
             "Gemm: output shape mismatch");
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  const auto rows = ActiveRowKernels().gemm;
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  parallel::ParallelFor(0, n, RowGrain(k * m), [&](int64_t lo, int64_t hi) {
    rows(ad, bd, od, lo, hi, k, m);
  });
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.rows() == b.rows(), "GemmTransA: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == a.cols() && out->cols() == b.cols(),
             "GemmTransA: output shape mismatch");
  const int64_t k = a.rows(), n = a.cols(), m = b.cols();
  const auto rows = ActiveRowKernels().trans_a;
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  // At a batch-scale k one row is a whole chunk's work, but a chunk must
  // hold at least one register tile.
  const int64_t grain = std::max(RowGrain(k * m), gemm::kMaxTileRows);
  parallel::ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    rows(ad, bd, od, lo, hi, k, n, m);
  });
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.cols() == b.cols(), "GemmTransB: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == a.rows() && out->cols() == b.rows(),
             "GemmTransB: output shape mismatch");
  const int64_t n = a.rows(), k = a.cols(), m = b.rows();
  // b^T lives in plain host memory, not a Matrix, so neither the
  // DeviceTracker peaks nor a fault plan's allocation ordinals see it. It
  // is converted to double once here; converting each element inside the
  // kernel, once per output row, made it no faster than the row loop.
  std::vector<double> bt(static_cast<size_t>(k * m));
  for (int64_t j = 0; j < m; ++j) {
    const float* brow = b.row(j);
    for (int64_t kk = 0; kk < k; ++kk) {
      bt[static_cast<size_t>(kk * m + j)] = brow[kk];
    }
  }
  const auto rows = ActiveRowKernels().trans_b;
  const float* ad = a.data();
  const double* btd = bt.data();
  float* od = out->data();
  parallel::ParallelFor(0, n, RowGrain(k * m), [&](int64_t lo, int64_t hi) {
    rows(ad, btd, od, lo, hi, k, m);
  });
}

void Axpy(float alpha, const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "Axpy: size mismatch");
  const float* xd = x.data();
  float* yd = y->data();
  parallel::ParallelFor(0, x.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            yd[i] += alpha * xd[i];
                          }
                        });
}

void Scale(float alpha, Matrix* x) {
  float* xd = x->data();
  parallel::ParallelFor(0, x->size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) xd[i] *= alpha;
                        });
}

void Copy(const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "Copy: size mismatch");
  std::memcpy(y->data(), x.data(), x.bytes());
}

void Add(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.size() == b.size() && a.size() == out->size(),
             "Add: size mismatch");
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  parallel::ParallelFor(0, a.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            od[i] = ad[i] + bd[i];
                          }
                        });
}

void Sub(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.size() == b.size() && a.size() == out->size(),
             "Sub: size mismatch");
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  parallel::ParallelFor(0, a.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            od[i] = ad[i] - bd[i];
                          }
                        });
}

void MulInPlace(const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "MulInPlace: size mismatch");
  const float* xd = x.data();
  float* yd = y->data();
  parallel::ParallelFor(0, x.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) yd[i] *= xd[i];
                        });
}

// Dot and the Column* reductions below stay serial on purpose: a chunked
// reduction changes the floating-point summation order, and these feed
// filter-parameter gradients and the OptBasis orthogonalization, where the
// serial bits are the documented reference. They are O(nF) against the
// kernels' O(nF^2)/O(mF), so the ceiling they put on scaling is small
// (measured in docs/PERFORMANCE.md).
double Dot(const Matrix& a, const Matrix& b) {
  SGNN_CHECK(a.size() == b.size(), "Dot: size mismatch");
  const float* ad = a.data();
  const float* bd = b.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += double(ad[i]) * bd[i];
  return acc;
}

void AddRowBroadcast(const Matrix& bias, Matrix* x) {
  SGNN_CHECK(bias.rows() == 1 && bias.cols() == x->cols(),
             "AddRowBroadcast: bias shape mismatch");
  const float* bd = bias.data();
  parallel::ParallelFor(
      0, x->rows(), RowGrain(x->cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float* xrow = x->row(i);
          for (int64_t j = 0; j < x->cols(); ++j) xrow[j] += bd[j];
        }
      });
}

void ColumnSum(const Matrix& x, Matrix* out) {
  SGNN_CHECK(out->rows() == 1 && out->cols() == x.cols(),
             "ColumnSum: output shape mismatch");
  out->Fill(0.0f);
  float* od = out->data();
  for (int64_t i = 0; i < x.rows(); ++i) {
    const float* xrow = x.row(i);
    for (int64_t j = 0; j < x.cols(); ++j) od[j] += xrow[j];
  }
}

void ColumnNorm(const Matrix& x, Matrix* out) {
  SGNN_CHECK(out->rows() == 1 && out->cols() == x.cols(),
             "ColumnNorm: output shape mismatch");
  std::vector<double> acc(static_cast<size_t>(x.cols()), 0.0);
  for (int64_t i = 0; i < x.rows(); ++i) {
    const float* xrow = x.row(i);
    for (int64_t j = 0; j < x.cols(); ++j)
      acc[static_cast<size_t>(j)] += double(xrow[j]) * xrow[j];
  }
  for (int64_t j = 0; j < x.cols(); ++j)
    out->at(0, j) = static_cast<float>(std::sqrt(acc[static_cast<size_t>(j)]));
}

void ColumnDot(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "ColumnDot: input shape mismatch");
  SGNN_CHECK(out->rows() == 1 && out->cols() == a.cols(),
             "ColumnDot: output shape mismatch");
  std::vector<double> acc(static_cast<size_t>(a.cols()), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    const float* brow = b.row(i);
    for (int64_t j = 0; j < a.cols(); ++j)
      acc[static_cast<size_t>(j)] += double(arow[j]) * brow[j];
  }
  for (int64_t j = 0; j < a.cols(); ++j)
    out->at(0, j) = static_cast<float>(acc[static_cast<size_t>(j)]);
}

void ColumnScale(const Matrix& alpha, Matrix* x) {
  SGNN_CHECK(alpha.rows() == 1 && alpha.cols() == x->cols(),
             "ColumnScale: alpha shape mismatch");
  const float* ad = alpha.data();
  parallel::ParallelFor(
      0, x->rows(), RowGrain(x->cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float* xrow = x->row(i);
          for (int64_t j = 0; j < x->cols(); ++j) xrow[j] *= ad[j];
        }
      });
}

void AxpyColumnwise(const Matrix& alpha, const Matrix& x, Matrix* y) {
  SGNN_CHECK(alpha.rows() == 1 && alpha.cols() == x.cols(),
             "AxpyColumnwise: alpha shape mismatch");
  SGNN_CHECK(x.rows() == y->rows() && x.cols() == y->cols(),
             "AxpyColumnwise: shape mismatch");
  const float* ad = alpha.data();
  parallel::ParallelFor(
      0, x.rows(), RowGrain(x.cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float* xrow = x.row(i);
          float* yrow = y->row(i);
          for (int64_t j = 0; j < x.cols(); ++j) yrow[j] += ad[j] * xrow[j];
        }
      });
}

void RowL2Normalize(Matrix* x) {
  parallel::ParallelFor(
      0, x->rows(), RowGrain(2 * x->cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float* xrow = x->row(i);
          double acc = 0.0;
          for (int64_t j = 0; j < x->cols(); ++j) {
            acc += double(xrow[j]) * xrow[j];
          }
          if (acc <= 0.0) continue;
          const float inv = static_cast<float>(1.0 / std::sqrt(acc));
          for (int64_t j = 0; j < x->cols(); ++j) xrow[j] *= inv;
        }
      });
}

void ReluInPlace(Matrix* x) {
  float* xd = x->data();
  parallel::ParallelFor(0, x->size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            xd[i] = xd[i] > 0.0f ? xd[i] : 0.0f;
                          }
                        });
}

void ReluBackwardInPlace(const Matrix& preact, Matrix* grad) {
  SGNN_CHECK(preact.size() == grad->size(),
             "ReluBackwardInPlace: size mismatch");
  const float* pd = preact.data();
  float* gd = grad->data();
  parallel::ParallelFor(0, grad->size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          // A select, not a branch on the sign.
                          for (int64_t i = lo; i < hi; ++i) {
                            gd[i] = pd[i] <= 0.0f ? 0.0f : gd[i];
                          }
                        });
}

bool AllFinite(const Matrix& x) {
  const float* d = x.data();
  for (int64_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(d[i])) return false;
  }
  return true;
}

}  // namespace sgnn::ops

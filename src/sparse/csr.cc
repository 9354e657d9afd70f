#include "sparse/csr.h"

#include <cstring>
#include <utility>

#include "sparse/spmm_kernels.h"
#include "tensor/cpu.h"
#include "tensor/parallel.h"

namespace sgnn::sparse {

namespace spmm {
namespace {

// The SpMM row-loop bodies. always_inline puts a copy into each ISA twin
// below, where the vector type is 4 lanes (baseline) or 8 lanes (AVX2).

using Vec4 = float __attribute__((vector_size(16)));
using Vec8 = float __attribute__((vector_size(32)));

/// Which terms of the affine tail a call site applies.
enum class Tail { kNone, kScale, kScaleAxpy, kScaleAxpy2 };

/// Rows at a compile-time width F: the row's F sums live in F / lanes
/// vector accumulators until the single tail-and-store. Rows are only
/// float-aligned, so every vector load and store goes through memcpy.
template <typename V, int64_t F, Tail T>
[[gnu::always_inline]] inline void FixedWidthRows(const RowArgs& a, int64_t lo,
                                                  int64_t hi) {
  constexpr int64_t kLanes = sizeof(V) / sizeof(float);
  constexpr int64_t kVecs = F / kLanes;
  const int64_t* __restrict indptr = a.indptr;
  const int32_t* __restrict indices = a.indices;
  const float* __restrict values = a.values;
  const float* __restrict x = a.x;
  float* __restrict out = a.out;
  const float* __restrict in1 = a.in1;
  const float* __restrict in2 = a.in2;
  const float ca = a.ca, ci = a.ci, cp = a.cp;
  for (int64_t i = lo; i < hi; ++i) {
    V acc[kVecs];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) acc[v] = V{};  // +0.0f in every lane
    for (int64_t p = indptr[i]; p < indptr[i + 1]; ++p) {
      const float w = values[p];
      const float* xrow = x + int64_t{indices[p]} * F;
#pragma GCC unroll 16
      for (int64_t v = 0; v < kVecs; ++v) {
        V xv;
        std::memcpy(&xv, xrow + v * kLanes, sizeof xv);
        acc[v] += w * xv;
      }
    }
    const int64_t row = i * F;
#pragma GCC unroll 16
    for (int64_t v = 0; v < kVecs; ++v) {
      V r = acc[v];
      const int64_t at = row + v * kLanes;
      if constexpr (T != Tail::kNone) r *= ca;
      if constexpr (T == Tail::kScaleAxpy || T == Tail::kScaleAxpy2) {
        V t;
        std::memcpy(&t, in1 + at, sizeof t);
        r += ci * t;
      }
      if constexpr (T == Tail::kScaleAxpy2) {
        V t;
        std::memcpy(&t, in2 + at, sizeof t);
        r += cp * t;
      }
      std::memcpy(out + at, &r, sizeof r);
    }
  }
}

template <typename V, int64_t F>
[[gnu::always_inline]] inline void WidthRows(const RowArgs& a, int64_t lo,
                                             int64_t hi) {
  if (!a.affine) {
    FixedWidthRows<V, F, Tail::kNone>(a, lo, hi);
  } else if (a.in1 == nullptr) {
    FixedWidthRows<V, F, Tail::kScale>(a, lo, hi);
  } else if (a.in2 == nullptr) {
    FixedWidthRows<V, F, Tail::kScaleAxpy>(a, lo, hi);
  } else {
    FixedWidthRows<V, F, Tail::kScaleAxpy2>(a, lo, hi);
  }
}

/// Rows at any width: the scalar row loop, which loads and stores the
/// output row once per nonzero, then the tail over the finished row.
[[gnu::always_inline]] inline void AnyWidthRows(const RowArgs& a, int64_t lo,
                                                int64_t hi) {
  const int64_t f = a.f;
  for (int64_t i = lo; i < hi; ++i) {
    float* orow = a.out + i * f;
    std::memset(orow, 0, static_cast<size_t>(f) * sizeof(float));
    for (int64_t p = a.indptr[i]; p < a.indptr[i + 1]; ++p) {
      const float w = a.values[p];
      const float* xrow = a.x + int64_t{a.indices[p]} * f;
      for (int64_t j = 0; j < f; ++j) orow[j] += w * xrow[j];
    }
    if (!a.affine) continue;
    for (int64_t j = 0; j < f; ++j) orow[j] *= a.ca;
    if (a.in1 == nullptr) continue;
    const float* in1row = a.in1 + i * f;
    for (int64_t j = 0; j < f; ++j) orow[j] += a.ci * in1row[j];
    if (a.in2 == nullptr) continue;
    const float* in2row = a.in2 + i * f;
    for (int64_t j = 0; j < f; ++j) orow[j] += a.cp * in2row[j];
  }
}

template <typename V>
[[gnu::always_inline]] inline void RowsBody(const RowArgs& a, int64_t lo,
                                            int64_t hi) {
  switch (a.f) {
    case 8:
      return WidthRows<V, 8>(a, lo, hi);
    case 16:
      return WidthRows<V, 16>(a, lo, hi);
    case 32:
      return WidthRows<V, 32>(a, lo, hi);
    case 64:
      return WidthRows<V, 64>(a, lo, hi);
    default:
      return AnyWidthRows(a, lo, hi);
  }
}

}  // namespace

void SpmmRowsBaseline(const RowArgs& args, int64_t lo, int64_t hi) {
  RowsBody<Vec4>(args, lo, hi);
}

SGNN_TARGET_AVX2 void SpmmRowsAvx2(const RowArgs& args, int64_t lo,
                                   int64_t hi) {
  RowsBody<Vec8>(args, lo, hi);
}

}  // namespace spmm

namespace {

/// Rows per SpMM/SpMV chunk: targets ~64k multiply-adds per chunk so chunk
/// dispatch overhead stays under ~1% of kernel time (docs/PERFORMANCE.md).
/// Boundaries depend only on the matrix shape, so results are identical at
/// any thread count (each output row is written by exactly one chunk).
int64_t RowGrain(int64_t n, int64_t nnz, int64_t f) {
  const int64_t avg_row_flops = (n > 0 ? nnz / n + 1 : 1) * (f > 0 ? f : 1);
  return parallel::GrainForFlops(avg_row_flops, int64_t{1} << 16);
}

/// out = a·x with the tail in `args`, on this CPU's twin, row-partitioned:
/// each chunk owns a contiguous row range of `out`, so the parallel result
/// is bit-identical to the serial one.
void RunRows(const CsrMatrix& a, const Matrix& x, Matrix* out,
             spmm::RowArgs args) {
  SGNN_CHECK(x.rows() == a.n(), "SpMM: input row count must equal n");
  SGNN_CHECK(out->rows() == a.n() && out->cols() == x.cols(),
             "SpMM: output shape mismatch");
  SGNN_CHECK(out->data() != x.data(), "SpMM: output must not alias input");
  static const auto rows =
      CpuHasAvx2() ? spmm::SpmmRowsAvx2 : spmm::SpmmRowsBaseline;
  args.indptr = a.indptr().data();
  args.indices = a.indices().data();
  args.values = a.values().data();
  args.x = x.data();
  args.out = out->data();
  args.f = x.cols();
  parallel::ParallelFor(0, a.n(), RowGrain(a.n(), a.nnz(), args.f),
                        [&](int64_t lo, int64_t hi) { rows(args, lo, hi); });
}

}  // namespace

CsrMatrix::CsrMatrix(int64_t n, std::vector<int64_t> indptr,
                     std::vector<int32_t> indices, std::vector<float> values,
                     Device device)
    : n_(n),
      indptr_(std::move(indptr)),
      indices_(std::move(indices)),
      values_(std::move(values)) {
  SGNN_CHECK(static_cast<int64_t>(indptr_.size()) == n_ + 1,
             "CsrMatrix: indptr must have n+1 entries");
  SGNN_CHECK(indices_.size() == values_.size(),
             "CsrMatrix: indices/values size mismatch");
  SGNN_CHECK(indptr_.empty() ||
                 indptr_.back() == static_cast<int64_t>(indices_.size()),
             "CsrMatrix: indptr end must equal nnz");
  tracked_ = DeviceBytes(device, bytes());
}

CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept
    : n_(std::exchange(other.n_, 0)),
      indptr_(std::move(other.indptr_)),
      indices_(std::move(other.indices_)),
      values_(std::move(other.values_)),
      tracked_(std::move(other.tracked_)) {}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  if (this == &other) return *this;
  n_ = std::exchange(other.n_, 0);
  indptr_ = std::move(other.indptr_);
  indices_ = std::move(other.indices_);
  values_ = std::move(other.values_);
  tracked_ = std::move(other.tracked_);
  return *this;
}

size_t CsrMatrix::bytes() const {
  return indptr_.size() * sizeof(int64_t) + indices_.size() * sizeof(int32_t) +
         values_.size() * sizeof(float);
}

void CsrMatrix::MoveToDevice(Device device) { tracked_.MoveTo(device); }

void CsrMatrix::SpMM(const Matrix& x, Matrix* out) const {
  RunRows(*this, x, out, {});
}

void CsrMatrix::SpMMAffine(const Matrix& x, float ca, const Matrix* in1,
                           float ci, const Matrix* in2, float cp,
                           Matrix* out) const {
  for (const Matrix* in : {in1, in2}) {
    if (in == nullptr) continue;
    SGNN_CHECK(in->rows() == out->rows() && in->cols() == out->cols(),
               "SpMMAffine: tail input shape mismatch");
    SGNN_CHECK(in->data() != out->data(),
               "SpMMAffine: output must not alias a tail input");
  }
  if (in1 == nullptr) {  // ca·s + cp·in2 is the one-term tail
    std::swap(in1, in2);
    std::swap(ci, cp);
  }
  spmm::RowArgs tail;
  tail.affine = true;
  tail.ca = ca;
  tail.ci = ci;
  tail.cp = cp;
  tail.in1 = in1 != nullptr ? in1->data() : nullptr;
  tail.in2 = in2 != nullptr ? in2->data() : nullptr;
  RunRows(*this, x, out, tail);
}

void CsrMatrix::SpMV(const std::vector<float>& x,
                     std::vector<float>* y) const {
  SGNN_CHECK(static_cast<int64_t>(x.size()) == n_, "SpMV: size mismatch");
  y->assign(static_cast<size_t>(n_), 0.0f);
  parallel::ParallelFor(
      0, n_, RowGrain(n_, nnz(), 1), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          for (int64_t p = indptr_[i]; p < indptr_[i + 1]; ++p) {
            acc += double(values_[p]) * x[static_cast<size_t>(indices_[p])];
          }
          (*y)[static_cast<size_t>(i)] = static_cast<float>(acc);
        }
      });
}

std::vector<double> CsrMatrix::RowSums() const {
  std::vector<double> sums(static_cast<size_t>(n_), 0.0);
  parallel::ParallelFor(
      0, n_, RowGrain(n_, nnz(), 1), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          for (int64_t p = indptr_[i]; p < indptr_[i + 1]; ++p) {
            acc += values_[p];
          }
          sums[static_cast<size_t>(i)] = acc;
        }
      });
  return sums;
}

}  // namespace sgnn::sparse

#include "sparse/csr.h"

#include <cstring>

#include "tensor/parallel.h"

namespace sgnn::sparse {

namespace {

/// Rows per SpMM/SpMV chunk: targets ~64k multiply-adds per chunk so chunk
/// dispatch overhead stays under ~1% of kernel time (docs/PERFORMANCE.md).
/// Boundaries depend only on the matrix shape, so results are identical at
/// any thread count (each output row is written by exactly one chunk).
int64_t RowGrain(int64_t n, int64_t nnz, int64_t f) {
  const int64_t avg_row_flops = (n > 0 ? nnz / n + 1 : 1) * (f > 0 ? f : 1);
  return parallel::GrainForFlops(avg_row_flops, int64_t{1} << 16);
}

}  // namespace

Status ValidateCsrArrays(int64_t n, const std::vector<int64_t>& indptr,
                         const std::vector<int32_t>& indices) {
  if (n < 0 || indptr.size() != static_cast<size_t>(n) + 1) {
    return Status::IOError("CSR indptr must have n+1 entries");
  }
  if (indptr.front() != 0 ||
      indptr.back() != static_cast<int64_t>(indices.size())) {
    return Status::IOError("inconsistent CSR indptr");
  }
  for (size_t i = 0; i + 1 < indptr.size(); ++i) {
    if (indptr[i] > indptr[i + 1]) {
      return Status::IOError("non-monotonic CSR indptr");
    }
  }
  for (const int32_t c : indices) {
    if (c < 0 || c >= n) return Status::IOError("CSR column index out of range");
  }
  return Status::OK();
}

CsrMatrix::CsrMatrix(int64_t n, std::vector<int64_t> indptr,
                     std::vector<int32_t> indices, std::vector<float> values,
                     Device device)
    : n_(n),
      device_(device),
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
  Register();
}

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : n_(other.n_),
      device_(other.device_),
      indptr_(other.indptr_),
      indices_(other.indices_),
      values_(other.values_) {
  Register();
}

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  if (this == &other) return *this;
  Unregister();
  n_ = other.n_;
  device_ = other.device_;
  indptr_ = other.indptr_;
  indices_ = other.indices_;
  values_ = other.values_;
  Register();
  return *this;
}

CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept
    : n_(other.n_),
      device_(other.device_),
      indptr_(std::move(other.indptr_)),
      indices_(std::move(other.indices_)),
      values_(std::move(other.values_)) {
  other.n_ = 0;
  other.indptr_.clear();
  other.indices_.clear();
  other.values_.clear();
}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  if (this == &other) return *this;
  Unregister();
  n_ = other.n_;
  device_ = other.device_;
  indptr_ = std::move(other.indptr_);
  indices_ = std::move(other.indices_);
  values_ = std::move(other.values_);
  other.n_ = 0;
  other.indptr_.clear();
  other.indices_.clear();
  other.values_.clear();
  return *this;
}

CsrMatrix::~CsrMatrix() { Unregister(); }

size_t CsrMatrix::bytes() const {
  return indptr_.size() * sizeof(int64_t) + indices_.size() * sizeof(int32_t) +
         values_.size() * sizeof(float);
}

void CsrMatrix::Register() const {
  if (bytes() > 0) DeviceTracker::Global().OnAlloc(device_, bytes());
}

void CsrMatrix::Unregister() const {
  if (bytes() > 0) DeviceTracker::Global().OnFree(device_, bytes());
}

void CsrMatrix::MoveToDevice(Device device) {
  if (device == device_) return;
  Unregister();
  device_ = device;
  Register();
}

void CsrMatrix::SpMM(const Matrix& x, Matrix* out) const {
  SGNN_CHECK(x.rows() == n_, "SpMM: input row count must equal n");
  SGNN_CHECK(out->rows() == n_ && out->cols() == x.cols(),
             "SpMM: output shape mismatch");
  SGNN_CHECK(out->data() != x.data(), "SpMM: output must not alias input");
  const int64_t f = x.cols();
  // Row-partitioned: each chunk owns a contiguous row range of `out`, so
  // the parallel result is bit-identical to the serial one.
  parallel::ParallelFor(
      0, n_, RowGrain(n_, nnz(), f), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float* orow = out->row(i);
          std::memset(orow, 0, static_cast<size_t>(f) * sizeof(float));
          for (int64_t p = indptr_[i]; p < indptr_[i + 1]; ++p) {
            const float w = values_[p];
            const float* xrow = x.row(indices_[p]);
            for (int64_t j = 0; j < f; ++j) orow[j] += w * xrow[j];
          }
        }
      });
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

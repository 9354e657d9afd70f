// Compressed-sparse-row graph matrix and propagation kernels.
//
// Propagation — one application of the n x n sparse graph matrix to the
// n x F dense representation — is the paper's O(mF)-time elementary
// operation. This module is the "SP backend" of Table 6.

#ifndef SGNN_SPARSE_CSR_H_
#define SGNN_SPARSE_CSR_H_

#include <cstdint>
#include <vector>

#include "tensor/device.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::sparse {

/// A square CSR matrix with float values, device-tagged so graph storage
/// shows up in the correct memory column (FB keeps it on the accelerator,
/// MB on the host).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from raw CSR arrays. `indptr` has n+1 entries; `indices` and
  /// `values` have nnz entries. Column indices within a row need not be
  /// sorted but must be < n.
  CsrMatrix(int64_t n, std::vector<int64_t> indptr,
            std::vector<int32_t> indices, std::vector<float> values,
            Device device = Device::kHost);

  CsrMatrix(const CsrMatrix& other) = default;
  CsrMatrix& operator=(const CsrMatrix& other) = default;
  /// Moves leave `other` an empty n = 0 matrix on its device.
  CsrMatrix(CsrMatrix&& other) noexcept;
  CsrMatrix& operator=(CsrMatrix&& other) noexcept;
  ~CsrMatrix() = default;

  int64_t n() const { return n_; }
  int64_t nnz() const { return static_cast<int64_t>(indices_.size()); }
  Device device() const { return tracked_.device(); }

  const std::vector<int64_t>& indptr() const { return indptr_; }
  const std::vector<int32_t>& indices() const { return indices_; }
  const std::vector<float>& values() const { return values_; }

  /// Storage bytes (indptr + indices + values), the O(m) graph footprint.
  size_t bytes() const;

  /// Re-tags storage onto another device (simulated transfer).
  void MoveToDevice(Device device);

  /// Out-degree (row nnz count) of node v.
  int64_t RowDegree(int64_t v) const { return indptr_[v + 1] - indptr_[v]; }

  /// out = this * x. Shapes: (n,n) x (n,F) -> (n,F). `out` must be
  /// pre-shaped (n, F); aliasing with x is not allowed.
  void SpMM(const Matrix& x, Matrix* out) const;

  /// out = ca·(this * x) + ci·in1 + cp·in2, a null in1 or in2 dropping its
  /// term: one recurrence hop, with the tail applied as each output row is
  /// stored. Same bits as SpMM, then Scale(ca), Axpy(ci, in1) and
  /// Axpy(cp, in2). in1 and in2 are (n, F) and `out` aliases neither.
  void SpMMAffine(const Matrix& x, float ca, const Matrix* in1, float ci,
                  const Matrix* in2, float cp, Matrix* out) const;

  /// y = this * x for a single vector.
  void SpMV(const std::vector<float>& x, std::vector<float>* y) const;

  /// Weighted row sums: out[i] = sum_j values[i][j].
  std::vector<double> RowSums() const;

 private:
  int64_t n_ = 0;
  std::vector<int64_t> indptr_;
  std::vector<int32_t> indices_;
  std::vector<float> values_;
  DeviceBytes tracked_;  ///< bytes() on device(); last, see DeviceBytes
};

}  // namespace sgnn::sparse

#endif  // SGNN_SPARSE_CSR_H_

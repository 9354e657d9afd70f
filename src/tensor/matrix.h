// Dense row-major float matrix with device accounting.
//
// The n x F node-representation matrices that dominate spectral-GNN memory
// (paper Section 2.2) are instances of this class; every allocation and
// release is reported to the DeviceTracker so benches can report peak
// RAM / "GPU" footprints per learning stage.

#ifndef SGNN_TENSOR_MATRIX_H_
#define SGNN_TENSOR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "tensor/device.h"
#include "tensor/rng.h"
#include "tensor/status.h"

namespace sgnn {

/// Dense row-major matrix of float32 values.
class Matrix {
 public:
  /// Empty 0x0 matrix on the host.
  Matrix() = default;

  /// Zero-initialized rows x cols matrix placed on `device`.
  Matrix(int64_t rows, int64_t cols, Device device = Device::kHost);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  /// Moves leave `other` a 0x0 matrix on its device.
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix();

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  Device device() const { return tracked_.device(); }
  size_t bytes() const { return static_cast<size_t>(size()) * sizeof(float); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the start of row `r`.
  float* row(int64_t r) { return data_.data() + r * cols_; }
  const float* row(int64_t r) const { return data_.data() + r * cols_; }

  float& at(int64_t r, int64_t c) { return data_[r * cols_ + c]; }
  float at(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Fills with i.i.d. N(mean, stddev) draws.
  void FillNormal(Rng* rng, float mean = 0.0f, float stddev = 1.0f);

  /// Fills with i.i.d. U[lo, hi) draws.
  void FillUniform(Rng* rng, float lo, float hi);

  /// Re-tags the matrix onto another device (simulated transfer); updates
  /// the DeviceTracker on both sides.
  void MoveToDevice(Device device);

  /// Returns a deep copy placed on `device`.
  Matrix CloneTo(Device device) const;

  /// Returns the sub-matrix made of the listed rows (gather).
  Matrix GatherRows(const std::vector<int32_t>& indices) const;

  /// Frobenius norm.
  double Norm() const;

  /// True when shapes match and all elements differ by at most `tol`.
  bool AllClose(const Matrix& other, float tol = 1e-5f) const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<float> data_;
  DeviceBytes tracked_;  ///< bytes() on device(); last, see DeviceBytes
};

}  // namespace sgnn

#endif  // SGNN_TENSOR_MATRIX_H_

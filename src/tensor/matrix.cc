#include "tensor/matrix.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace sgnn {

Matrix::Matrix(int64_t rows, int64_t cols, Device device)
    : rows_(rows), cols_(cols) {
  SGNN_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  data_.assign(static_cast<size_t>(rows) * cols, 0.0f);
  tracked_ = DeviceBytes(device, bytes());
}

// Defaulted here rather than in the header, so every caller shares one
// out-of-line copy and destructor instead of inlining the tracker calls.
Matrix::Matrix(const Matrix& other) = default;
Matrix& Matrix::operator=(const Matrix& other) = default;
Matrix::~Matrix() = default;

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      data_(std::move(other.data_)),
      tracked_(std::move(other.tracked_)) {}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  data_ = std::move(other.data_);
  tracked_ = std::move(other.tracked_);
  return *this;
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::FillNormal(Rng* rng, float mean, float stddev) {
  for (auto& v : data_) v = static_cast<float>(rng->Normal(mean, stddev));
}

void Matrix::FillUniform(Rng* rng, float lo, float hi) {
  for (auto& v : data_) v = static_cast<float>(rng->Uniform(lo, hi));
}

void Matrix::MoveToDevice(Device device) { tracked_.MoveTo(device); }

Matrix Matrix::CloneTo(Device device) const {
  Matrix out(rows_, cols_, device);
  std::memcpy(out.data(), data(), bytes());
  return out;
}

Matrix Matrix::GatherRows(const std::vector<int32_t>& indices) const {
  Matrix out(static_cast<int64_t>(indices.size()), cols_, device());
  for (size_t i = 0; i < indices.size(); ++i) {
    SGNN_CHECK(indices[i] >= 0 && indices[i] < rows_,
               "GatherRows index out of range");
    std::memcpy(out.row(static_cast<int64_t>(i)), row(indices[i]),
                static_cast<size_t>(cols_) * sizeof(float));
  }
  return out;
}

double Matrix::Norm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * v;
  return std::sqrt(sum);
}

bool Matrix::AllClose(const Matrix& other, float tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

}  // namespace sgnn

#include "sparse/edge_index.h"

#include <cstring>

namespace sgnn::sparse {

EdgeIndex::EdgeIndex(const CsrMatrix& csr, Device device) : n_(csr.n()) {
  src_.reserve(static_cast<size_t>(csr.nnz()));
  dst_.reserve(static_cast<size_t>(csr.nnz()));
  weight_.reserve(static_cast<size_t>(csr.nnz()));
  const auto& indptr = csr.indptr();
  const auto& indices = csr.indices();
  const auto& values = csr.values();
  for (int64_t i = 0; i < n_; ++i) {
    for (int64_t p = indptr[static_cast<size_t>(i)];
         p < indptr[static_cast<size_t>(i) + 1]; ++p) {
      dst_.push_back(static_cast<int32_t>(i));
      src_.push_back(indices[static_cast<size_t>(p)]);
      weight_.push_back(values[static_cast<size_t>(p)]);
    }
  }
  tracked_ = DeviceBytes(device, bytes());
}

size_t EdgeIndex::bytes() const {
  return src_.size() * sizeof(int32_t) + dst_.size() * sizeof(int32_t) +
         weight_.size() * sizeof(float);
}

void EdgeIndex::PropagateGatherScatter(const Matrix& x, Matrix* out) const {
  SGNN_CHECK(x.rows() == n_, "EI propagate: input row count must equal n");
  SGNN_CHECK(out->rows() == n_ && out->cols() == x.cols(),
             "EI propagate: output shape mismatch");
  const int64_t f = x.cols();
  const int64_t e = num_edges();
  // Gather: one weighted message per edge. This buffer is what inflates the
  // EI backend's memory to O(mF).
  Matrix messages(e, f, device());
  for (int64_t p = 0; p < e; ++p) {
    const float* xrow = x.row(src_[static_cast<size_t>(p)]);
    float* mrow = messages.row(p);
    const float w = weight_[static_cast<size_t>(p)];
    for (int64_t j = 0; j < f; ++j) mrow[j] = w * xrow[j];
  }
  // Scatter-add into destinations.
  out->Fill(0.0f);
  for (int64_t p = 0; p < e; ++p) {
    float* orow = out->row(dst_[static_cast<size_t>(p)]);
    const float* mrow = messages.row(p);
    for (int64_t j = 0; j < f; ++j) orow[j] += mrow[j];
  }
}

}  // namespace sgnn::sparse

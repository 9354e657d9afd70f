// Edge-index ("EI") propagation backend.
//
// Mirrors torch_geometric.EdgeIndex-style gather-scatter message passing:
// propagation materializes one message per directed edge, costing O(mF)
// *memory* in addition to O(mF) time. Table 6 contrasts this against the
// CSR "SP" backend, which streams messages and needs no per-edge buffer.

#ifndef SGNN_SPARSE_EDGE_INDEX_H_
#define SGNN_SPARSE_EDGE_INDEX_H_

#include <cstdint>
#include <vector>

#include "sparse/csr.h"
#include "tensor/matrix.h"

namespace sgnn::sparse {

/// COO edge storage with per-edge weights, device-tagged.
class EdgeIndex {
 public:
  EdgeIndex() = default;

  /// Builds from a CSR matrix (keeps the same weights).
  explicit EdgeIndex(const CsrMatrix& csr, Device device = Device::kHost);

  EdgeIndex(const EdgeIndex&) = delete;
  EdgeIndex& operator=(const EdgeIndex&) = delete;

  int64_t n() const { return n_; }
  int64_t num_edges() const { return static_cast<int64_t>(src_.size()); }
  Device device() const { return tracked_.device(); }

  /// Storage bytes of the COO arrays.
  size_t bytes() const;

  /// out = A x via explicit gather (per-edge message buffer) then scatter.
  /// The message buffer is allocated on this EdgeIndex's device — this is the
  /// O(mF) memory term that makes the EI backend OOM on large graphs.
  void PropagateGatherScatter(const Matrix& x, Matrix* out) const;

 private:
  int64_t n_ = 0;
  std::vector<int32_t> src_;
  std::vector<int32_t> dst_;
  std::vector<float> weight_;
  DeviceBytes tracked_;  ///< bytes() on device(); last, see DeviceBytes
};

}  // namespace sgnn::sparse

#endif  // SGNN_SPARSE_EDGE_INDEX_H_

#include "sparse/serialize.h"

#include <string>
#include <vector>

namespace sgnn::sparse {

void AppendCsr(const CsrMatrix& m, serialize::Writer* w) {
  w->PutI64(m.n());
  w->PutI64(m.nnz());
  for (const int64_t v : m.indptr()) w->PutI64(v);
  for (const int32_t v : m.indices()) w->PutI32(v);
  for (const float v : m.values()) w->PutF32(v);
}

Status ReadCsr(serialize::Reader* r, Device device, CsrMatrix* out) {
  int64_t n = 0, nnz = 0;
  SGNN_RETURN_IF_ERROR(r->I64(&n));
  SGNN_RETURN_IF_ERROR(r->I64(&nnz));
  if (n < 0 || nnz < 0) {
    return Status::IOError("corrupt CSR header: n=" + std::to_string(n) +
                           " nnz=" + std::to_string(nnz));
  }
  // Each indptr entry is 8 bytes and each nnz entry at least 8; a header
  // promising more entries than remaining bytes is corrupt, not just big.
  if (static_cast<uint64_t>(n) > r->remaining() / 8 ||
      static_cast<uint64_t>(nnz) > r->remaining() / 8) {
    return Status::IOError("CSR header larger than payload");
  }
  std::vector<int64_t> indptr(static_cast<size_t>(n) + 1);
  for (auto& v : indptr) SGNN_RETURN_IF_ERROR(r->I64(&v));
  std::vector<int32_t> indices(static_cast<size_t>(nnz));
  for (auto& v : indices) SGNN_RETURN_IF_ERROR(r->I32(&v));
  std::vector<float> values(static_cast<size_t>(nnz));
  for (auto& v : values) SGNN_RETURN_IF_ERROR(r->F32(&v));
  SGNN_RETURN_IF_ERROR(ValidateCsrArrays(n, indptr, indices));
  *out = CsrMatrix(n, std::move(indptr), std::move(indices), std::move(values),
                   device);
  return Status::OK();
}

}  // namespace sgnn::sparse

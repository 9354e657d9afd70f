#include "sparse/serialize.h"

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
  SGNN_RETURN_IF_ERROR(r->CheckCount(n, sizeof(int64_t)));
  std::vector<int64_t> indptr(static_cast<size_t>(n) + 1);
  for (auto& v : indptr) SGNN_RETURN_IF_ERROR(r->I64(&v));
  SGNN_RETURN_IF_ERROR(r->CheckCount(nnz, sizeof(int32_t) + sizeof(float)));
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

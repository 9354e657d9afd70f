// Stream codec for CSR matrices, used by the serving checkpoint, which can
// embed the normalized propagation matrix so a served model can refresh its
// precomputed terms after a graph update. All multi-byte fields go through
// tensor/serialize.h and are therefore little-endian on every host.

#ifndef SGNN_SPARSE_SERIALIZE_H_
#define SGNN_SPARSE_SERIALIZE_H_

#include "sparse/csr.h"
#include "tensor/serialize.h"
#include "tensor/status.h"

namespace sgnn::sparse {

/// Appends a CSR matrix as (i64 n, i64 nnz, indptr, indices, values).
void AppendCsr(const CsrMatrix& m, serialize::Writer* w);

/// Reads a CSR matrix written by AppendCsr onto `device`. Checks n and nnz
/// against the bytes left before allocating (IOError) and then the arrays
/// themselves (ValidateCsrArrays).
[[nodiscard]] Status ReadCsr(serialize::Reader* r, Device device,
                             CsrMatrix* out);

}  // namespace sgnn::sparse

#endif  // SGNN_SPARSE_SERIALIZE_H_

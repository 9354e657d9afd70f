// Row kernels behind CsrMatrix::SpMM and CsrMatrix::SpMMAffine.
//
// Private to src/sparse/csr.cc and its tests. The body is compiled twice,
// for the baseline ISA (4-lane vectors) and with AVX2 enabled (8-lane), and
// csr.cc picks one twin per process with CpuHasAvx2() (tensor/cpu.h).
//
// For F in {8, 16, 32, 64} a row's F sums stay in vector registers while
// the kernel walks the row's nonzeros, and the row is stored once, with the
// affine tail applied in that store. Every other F runs the scalar row loop.
// Both paths give each element the same operations in the same order:
//   s   = ((+0 + w0·x0) + w1·x1) + ...   nonzeros in stored order
//   out = ((s·ca) + ci·in1) + cp·in2     terms absent from the tail skipped
// and the build sets -ffp-contract=off, so every path and both twins give
// the bits of an SpMM followed by Scale(ca), Axpy(ci, in1), Axpy(cp, in2)
// (tests/sparse_test.cc, SpmmIsa.*).
//
// Each kernel overwrites output rows [lo, hi) and touches no other row, so
// disjoint row ranges may run concurrently.

#ifndef SGNN_SPARSE_SPMM_KERNELS_H_
#define SGNN_SPARSE_SPMM_KERNELS_H_

#include <cstdint>

namespace sgnn::sparse::spmm {

/// One SpMM's operands: out = A·x, or with `affine`
/// out = ca·(A·x) [+ ci·in1 [+ cp·in2]]. A is n x n in CSR form; x, out,
/// in1 and in2 are dense row-major (n, f). `out` aliases none of the others.
struct RowArgs {
  const int64_t* indptr = nullptr;
  const int32_t* indices = nullptr;
  const float* values = nullptr;
  const float* x = nullptr;
  float* out = nullptr;
  int64_t f = 0;
  bool affine = false;
  float ca = 0.0f;
  float ci = 0.0f;
  float cp = 0.0f;
  const float* in1 = nullptr;  ///< optional; in2 is read only when it is set
  const float* in2 = nullptr;
};

void SpmmRowsBaseline(const RowArgs& args, int64_t lo, int64_t hi);
void SpmmRowsAvx2(const RowArgs& args, int64_t lo, int64_t hi);

}  // namespace sgnn::sparse::spmm

#endif  // SGNN_SPARSE_SPMM_KERNELS_H_

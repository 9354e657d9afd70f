// Row kernels behind ops::Gemm, ops::GemmTransA and ops::GemmTransB.
//
// Private to src/tensor/ops.cc and its tests. Each body is compiled twice:
// once for the baseline ISA (4-lane float vectors) and once with AVX2
// enabled (8-lane); ops.cc picks one set per process with CpuHasAvx2()
// (tensor/cpu.h).
//
// For m in {8, 16, 32, 64} the kernels keep output sums in vector registers
// across the whole inner dimension and store each output element once:
//   Gemm        a row's m sums, walking the row's nonzero kk in order;
//   GemmTransA  a tile of up to kMaxTileRows rows by m columns, with a
//               zero a[kk][i] adding a masked +0 instead of its product;
//   GemmTransB  blocks of up to 8 double vectors of a row.
// Every other m runs the plain row loops. Both paths give each element the
// same operations in the same order (see each kernel below), and the build
// sets -ffp-contract=off, so every path and both twins give the bits of the
// scalar loops (tests/tensor_test.cc, GemmIsa.*).
//
// All matrices are dense row-major; `out` must not alias an input. Each
// kernel overwrites output rows [lo, hi) and touches no other row, so
// disjoint row ranges may run concurrently.

#ifndef SGNN_TENSOR_GEMM_KERNELS_H_
#define SGNN_TENSOR_GEMM_KERNELS_H_

#include <cstdint>

namespace sgnn::ops::gemm {

/// Most output rows one GemmTransA register tile holds: a tile is as many
/// rows as 12 vector accumulators hold, and one row takes at least one
/// vector. A row range of at least this many rows holds a full tile at
/// every width, so ops.cc never gives GemmTransA a smaller chunk.
inline constexpr int64_t kMaxTileRows = 12;

/// Rows [lo, hi) of out = a * b, with a (n,k), b (k,m), out (n,m). Each
/// element accumulates float products a[i][kk] * b[kk][j] onto +0 with kk
/// ascending, skipping a[i][kk] == 0.
void GemmRowsBaseline(const float* a, const float* b, float* out, int64_t lo,
                      int64_t hi, int64_t k, int64_t m);
void GemmRowsAvx2(const float* a, const float* b, float* out, int64_t lo,
                  int64_t hi, int64_t k, int64_t m);

/// Rows [lo, hi) of out = a^T * b, with a (k,n), b (k,m), out (n,m). Same
/// per-element order and zero skip as GemmRows.
void GemmTransARowsBaseline(const float* a, const float* b, float* out,
                            int64_t lo, int64_t hi, int64_t k, int64_t n,
                            int64_t m);
void GemmTransARowsAvx2(const float* a, const float* b, float* out,
                        int64_t lo, int64_t hi, int64_t k, int64_t n,
                        int64_t m);

/// Rows [lo, hi) of out = a * b^T given bt = b^T in double, with a (n,k),
/// bt (k,m), out (n,m). Each element sums the exact double products
/// a[i][kk] * bt[kk][j] onto +0 with kk ascending, without a zero skip, and
/// rounds once to float: the bits of a serial double dot product of a's
/// row i with b's row j.
void GemmTransBRowsBaseline(const float* a, const double* bt, float* out,
                            int64_t lo, int64_t hi, int64_t k, int64_t m);
void GemmTransBRowsAvx2(const float* a, const double* bt, float* out,
                        int64_t lo, int64_t hi, int64_t k, int64_t m);

/// One ISA's three row kernels.
struct RowKernels {
  decltype(&GemmRowsBaseline) gemm;
  decltype(&GemmTransARowsBaseline) trans_a;
  decltype(&GemmTransBRowsBaseline) trans_b;
};
inline constexpr RowKernels kBaselineKernels{
    GemmRowsBaseline, GemmTransARowsBaseline, GemmTransBRowsBaseline};
inline constexpr RowKernels kAvx2Kernels{GemmRowsAvx2, GemmTransARowsAvx2,
                                         GemmTransBRowsAvx2};

}  // namespace sgnn::ops::gemm

#endif  // SGNN_TENSOR_GEMM_KERNELS_H_

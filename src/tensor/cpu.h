// The CPU feature probe behind the kernels' ISA twins.
//
// The GEMM row kernels (tensor/gemm_kernels.h) and the SpMM row kernels
// (sparse/spmm_kernels.h) each compile one body twice: for the baseline ISA
// and, marked SGNN_TARGET_AVX2, with AVX2 enabled (no -march needed). Each
// picks its twin once per process with CpuHasAvx2(). The build sets
// -ffp-contract=off and no twin enables FMA, so both twins give the same bits.

#ifndef SGNN_TENSOR_CPU_H_
#define SGNN_TENSOR_CPU_H_

#if defined(__x86_64__) || defined(__i386__)
#define SGNN_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define SGNN_TARGET_AVX2
#endif

namespace sgnn {

/// True when this CPU executes AVX2; always false off x86.
bool CpuHasAvx2();

}  // namespace sgnn

#endif  // SGNN_TENSOR_CPU_H_

// Dependency-free thread-pool parallelism for the hot kernels.
//
// The paper's efficiency story (Tables 9/11, Figures 2/5) is only credible
// when the elementary operations — SpMM propagation, dense GEMM
// transformation, push propagation — saturate the hardware. This module
// provides the one primitive they share: ParallelFor over a fixed,
// thread-count-independent chunking of an index range.
//
// Determinism contract (docs/PERFORMANCE.md has the full story):
//   * Chunk boundaries depend only on (begin, end, grain) — never on the
//     thread count or scheduling. A kernel whose chunks write disjoint
//     outputs, or whose chunk-local partials are merged in chunk order,
//     therefore produces bit-identical results at 1 and N threads, which
//     keeps the tier-1 equality tests and journal-resume replays valid.
//   * The serial fallback (1 thread, empty pool, or a nested call) iterates
//     the same chunks in the same order.
//
// Thread count resolution: SetNumThreads() override, else the
// SGNN_NUM_THREADS environment variable, else std::thread::hardware
// concurrency. The pool is created lazily on the first parallel call and
// grows when the configured count rises; at 1 thread no pool is ever
// created and every call runs inline.

#ifndef SGNN_TENSOR_PARALLEL_H_
#define SGNN_TENSOR_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace sgnn::parallel {

/// Chunk body: invoked with a half-open sub-range [chunk_begin, chunk_end).
using ChunkFn = std::function<void(int64_t, int64_t)>;

/// Threads used by subsequent ParallelFor calls (>= 1). Resolution order:
/// SetNumThreads override, SGNN_NUM_THREADS, hardware concurrency.
int NumThreads();

/// Overrides the thread count for subsequent calls (bench sweeps, tests).
/// n <= 0 clears the override back to env/hardware resolution.
void SetNumThreads(int n);

/// True while the calling thread is inside a ParallelFor chunk (including
/// the serial fallback). Nested ParallelFor calls run serially.
bool InParallelRegion();

/// Splits [begin, end) into ceil((end-begin)/grain) fixed chunks and invokes
/// `fn` once per chunk, using up to NumThreads() threads (the caller
/// participates). Chunks may run concurrently and in any order; within a
/// chunk, iteration order is the caller's. Exceptions thrown by `fn` are
/// latched and the first one is rethrown on the calling thread after every
/// chunk has finished. `grain` < 1 is treated as 1.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const ChunkFn& fn);

/// Grain that targets `flops_per_chunk` work units for items costing
/// `flops_per_item` each — the shared grain-size heuristic of the dense and
/// sparse kernels (rationale in docs/PERFORMANCE.md).
int64_t GrainForFlops(int64_t flops_per_item, int64_t flops_per_chunk);

/// Number of chunks ParallelFor will produce for the given range — exposed
/// so kernels that keep chunk-local partial buffers (push propagation) can
/// size them without duplicating the chunking rule.
int64_t NumChunks(int64_t begin, int64_t end, int64_t grain);

}  // namespace sgnn::parallel

#endif  // SGNN_TENSOR_PARALLEL_H_

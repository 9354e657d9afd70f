// Liveness-based memory planner.
//
// Walks the node schedule once to compute per-value last-use positions, then
// assigns every non-input value either (a) a caller-owned output slot — the
// destination pinned by MarkOutput, propagated *backwards* through
// alias-legal chains so an accumulator (Zero → Axpy → Axpy…) lives in the
// caller's matrix from the start, updated in place — or
// (b) a buffer from an exact-shape reuse pool, aliasing the dying input of
// Scale (in0) and Axpy (in1, the accumulate side) in place when legal.
//
// Alias legality: the source value must be pool-backed (not external, not
// pinned to an output), die at the consuming node, and match the output
// shape. SpMM and fused outputs are never aliased — their kernels read
// inputs while writing the output.
//
// The emitted plan predicts peak bytes exactly: the executor allocates all
// output slots and pool buffers up front and frees nothing until teardown,
// so `DeviceTracker` peak growth during execution equals
// `planned_peak_bytes` to the byte (asserted in tests/opgraph_test.cc).
//
// Planning is a pure function of the graph — same graph, same plan — which
// keeps execution deterministic and resumable.

#ifndef SGNN_OPGRAPH_PLANNER_H_
#define SGNN_OPGRAPH_PLANNER_H_

#include <cstdint>
#include <vector>

#include "opgraph/graph.h"

namespace sgnn::opgraph {

/// Buffer-assignment result. `pool_buffer[v]` / `output_slot[v]` are -1 when
/// the value is not backed by that storage class; graph inputs have both -1.
struct Plan {
  struct BufferSpec {
    int64_t rows = 0;
    int64_t cols = 0;
    size_t bytes = 0;
  };
  struct OutputSpec {
    Matrix* dest = nullptr;
    int64_t rows = 0;
    int64_t cols = 0;
    size_t bytes = 0;
  };

  std::vector<int> pool_buffer;   ///< per value: pool buffer index or -1
  std::vector<int> output_slot;   ///< per value: output slot index or -1
  std::vector<BufferSpec> buffers;
  std::vector<OutputSpec> outputs;

  size_t pool_bytes = 0;    ///< sum over buffers
  size_t output_bytes = 0;  ///< sum over outputs
  /// Exact DeviceTracker peak growth of Execute(): pool + outputs.
  size_t planned_peak_bytes = 0;
};

/// Builds the buffer plan for `graph`'s current (possibly fused) schedule.
Plan PlanBuffers(const Graph& graph);

}  // namespace sgnn::opgraph

#endif  // SGNN_OPGRAPH_PLANNER_H_

// Plan executor + one-call pipeline.
//
// Replays a planned graph onto the existing tensor kernels (ops::*, which
// dispatch through ParallelFor with flop-weighted chunking), so results are
// bit-identical at any thread count.
//
// Allocation discipline: all output destinations and pool buffers are
// allocated up front and nothing is freed until teardown, so the
// DeviceTracker peak grows by exactly Plan::planned_peak_bytes. A simulated
// accelerator OOM latched during those allocations (capacity overflow or an
// armed fault plan — see runtime/fault_injection.h) does not abort the
// kernels: execution completes with correct results and Execute returns
// Status::OutOfMemory. The filters leave that status to the run guards of
// the trainers' epoch loop, which read the same latched flag and stop the
// run.

#ifndef SGNN_OPGRAPH_EXECUTOR_H_
#define SGNN_OPGRAPH_EXECUTOR_H_

#include "opgraph/graph.h"
#include "opgraph/planner.h"

namespace sgnn::opgraph {

/// Executes `graph` under `plan`. Writes every marked output; returns
/// OutOfMemory when the run newly latched the accelerator OOM flag (results
/// are still fully computed — the simulation never fails an allocation).
[[nodiscard]] Status Execute(const Graph& graph, const Plan& plan);

/// Fuse → plan → execute in one call; returns Execute's status.
[[nodiscard]] Status RunPipeline(Graph* graph);

}  // namespace sgnn::opgraph

#endif  // SGNN_OPGRAPH_EXECUTOR_H_

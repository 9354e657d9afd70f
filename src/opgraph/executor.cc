#include "opgraph/executor.h"

#include <vector>

#include "opgraph/fusion.h"
#include "tensor/device.h"
#include "tensor/ops.h"

namespace sgnn::opgraph {

namespace {

class Storage {
 public:
  Storage(const Graph& graph, const Plan& plan)
      : graph_(graph), plan_(plan), pool_(plan.buffers.size()) {
    const Device device = graph.device();
    for (size_t b = 0; b < plan.buffers.size(); ++b) {
      pool_[b] = Matrix(plan.buffers[b].rows, plan.buffers[b].cols, device);
    }
    for (const Plan::OutputSpec& o : plan_.outputs) {
      *o.dest = Matrix(o.rows, o.cols, device);
    }
  }

  /// Mutable storage backing value `v` (never an external input).
  Matrix* Dest(ValueId v) {
    const int slot = plan_.output_slot[static_cast<size_t>(v)];
    if (slot >= 0) return plan_.outputs[static_cast<size_t>(slot)].dest;
    const int buf = plan_.pool_buffer[static_cast<size_t>(v)];
    SGNN_CHECK(buf >= 0, "opgraph: value has no writable storage");
    return &pool_[static_cast<size_t>(buf)];
  }

  /// Read-only view of value `v` (external input, output slot, or pool).
  const Matrix& Src(ValueId v) {
    const ValueInfo& info = graph_.values()[static_cast<size_t>(v)];
    if (info.is_input()) return *info.external;
    return *Dest(v);
  }

  /// Src(v), or null for kNoValue.
  const Matrix* SrcOrNull(ValueId v) {
    return v == kNoValue ? nullptr : &Src(v);
  }

 private:
  const Graph& graph_;
  const Plan& plan_;
  std::vector<Matrix> pool_;
};

}  // namespace

Status Execute(const Graph& graph, const Plan& plan) {
  DeviceTracker& tracker = DeviceTracker::Global();
  const bool oom_before = tracker.accel_oom();

  // All allocations happen here; peak grows by exactly planned_peak_bytes.
  Storage storage(graph, plan);

  // Marked inputs have no defining node — copy them out first (Precompute
  // emits T_0 = x as a copy).
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    const ValueInfo& info = graph.values()[static_cast<size_t>(v)];
    if (info.is_input() && info.output != nullptr) {
      ops::Copy(*info.external, info.output);
    }
  }

  for (const Node& n : graph.nodes()) {
    Matrix* out = storage.Dest(n.out);
    switch (n.kind) {
      case OpKind::kZero:
        out->Fill(0.0f);
        break;
      case OpKind::kSpmm:
        n.spmm->Apply(storage.Src(n.in0), out);
        break;
      case OpKind::kScale: {
        const Matrix& x = storage.Src(n.in0);
        if (&x != out) ops::Copy(x, out);
        ops::Scale(n.alpha, out);
        break;
      }
      case OpKind::kAxpy: {
        const Matrix& y = storage.Src(n.in1);
        if (&y != out) ops::Copy(y, out);
        ops::Axpy(n.alpha, storage.Src(n.in0), out);
        break;
      }
      case OpKind::kFusedSpmmAffine:
        // Bit-identical to the unfused chain, minus its scratch values.
        n.spmm->ApplyAffine(storage.Src(n.in0), n.ca, storage.SrcOrNull(n.in1),
                            n.ci, storage.SrcOrNull(n.in2), n.cp, out);
        break;
    }
  }

  if (!oom_before && tracker.accel_oom()) {
    return Status::OutOfMemory(
        "opgraph: plan execution latched simulated accelerator OOM");
  }
  return Status::OK();
}

Status RunPipeline(Graph* graph) {
  FuseSpmmChains(graph);
  return Execute(*graph, PlanBuffers(*graph));
}

}  // namespace sgnn::opgraph

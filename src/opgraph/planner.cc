#include "opgraph/planner.h"

#include <map>
#include <utility>
#include <vector>

namespace sgnn::opgraph {

namespace {

// The input a node may legally overwrite in place: the kernel's in-place
// target. SpMM and fused kernels read their inputs while writing the
// output, so they never alias.
ValueId AliasSource(const Node& n) {
  switch (n.kind) {
    case OpKind::kScale:
      return n.in0;
    case OpKind::kAxpy:
      return n.in1;
    default:
      return kNoValue;
  }
}

}  // namespace

Plan PlanBuffers(const Graph& graph) {
  const std::vector<Node>& nodes = graph.nodes();
  const std::vector<ValueInfo>& values = graph.values();
  const int num_values = graph.num_values();

  Plan plan;
  plan.pool_buffer.assign(static_cast<size_t>(num_values), -1);
  plan.output_slot.assign(static_cast<size_t>(num_values), -1);

  // Last consuming node per value (-1 = never consumed).
  std::vector<int> last_use(static_cast<size_t>(num_values), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const ValueId v : {nodes[i].in0, nodes[i].in1, nodes[i].in2}) {
      if (v == kNoValue) continue;
      const ValueInfo& info = values[static_cast<size_t>(v)];
      SGNN_CHECK(info.is_input() || info.def >= 0,
                 "opgraph: node consumes a value with no live definition");
      last_use[static_cast<size_t>(v)] = static_cast<int>(i);
    }
  }

  // Output slots: one per marked destination, then propagated backwards
  // through alias-legal chains so e.g. Zero → Axpy → … → marked accumulator
  // computes in the caller's matrix from the first node.
  for (ValueId v = 0; v < num_values; ++v) {
    const ValueInfo& info = values[static_cast<size_t>(v)];
    if (info.output == nullptr) continue;
    Plan::OutputSpec spec;
    spec.dest = info.output;
    spec.rows = info.rows;
    spec.cols = info.cols;
    spec.bytes = info.bytes();
    plan.output_slot[static_cast<size_t>(v)] =
        static_cast<int>(plan.outputs.size());
    plan.outputs.push_back(spec);
  }
  for (int i = static_cast<int>(nodes.size()) - 1; i >= 0; --i) {
    const Node& n = nodes[static_cast<size_t>(i)];
    const int slot = plan.output_slot[static_cast<size_t>(n.out)];
    if (slot < 0) continue;
    const ValueId src = AliasSource(n);
    if (src == kNoValue) continue;
    const ValueInfo& si = values[static_cast<size_t>(src)];
    if (si.is_input()) continue;
    if (plan.output_slot[static_cast<size_t>(src)] >= 0) continue;
    if (last_use[static_cast<size_t>(src)] != i) continue;
    if (si.rows != values[static_cast<size_t>(n.out)].rows ||
        si.cols != values[static_cast<size_t>(n.out)].cols) {
      continue;
    }
    plan.output_slot[static_cast<size_t>(src)] = slot;
  }

  // Forward pass: aliasing + exact-shape free-list reuse. Storage for a
  // node's output is assigned *before* its dying inputs are released — a
  // fresh acquisition must never hand out a buffer another operand of the
  // same node is still reading.
  std::map<std::pair<int64_t, int64_t>, std::vector<int>> free_list;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    const size_t out = static_cast<size_t>(n.out);
    if (plan.output_slot[out] < 0) {
      int reuse = -1;
      const ValueId src = AliasSource(n);
      if (src != kNoValue) {
        const ValueInfo& si = values[static_cast<size_t>(src)];
        if (!si.is_input() &&
            plan.output_slot[static_cast<size_t>(src)] < 0 &&
            plan.pool_buffer[static_cast<size_t>(src)] >= 0 &&
            last_use[static_cast<size_t>(src)] == static_cast<int>(i) &&
            si.rows == values[out].rows && si.cols == values[out].cols) {
          reuse = plan.pool_buffer[static_cast<size_t>(src)];
        }
      }
      if (reuse < 0) {
        const std::pair<int64_t, int64_t> key(values[out].rows,
                                              values[out].cols);
        auto it = free_list.find(key);
        if (it != free_list.end() && !it->second.empty()) {
          reuse = it->second.back();
          it->second.pop_back();
        } else {
          Plan::BufferSpec spec;
          spec.rows = values[out].rows;
          spec.cols = values[out].cols;
          spec.bytes = values[out].bytes();
          reuse = static_cast<int>(plan.buffers.size());
          plan.buffers.push_back(spec);
        }
      }
      plan.pool_buffer[out] = reuse;
    }
    // Release pool buffers whose value dies at this node (unless the buffer
    // was just transferred to the output by aliasing).
    ValueId released[3] = {kNoValue, kNoValue, kNoValue};
    int num_released = 0;
    for (const ValueId v : {n.in0, n.in1, n.in2}) {
      if (v == kNoValue || last_use[static_cast<size_t>(v)] !=
                               static_cast<int>(i)) {
        continue;
      }
      bool seen = false;
      for (int r = 0; r < num_released; ++r) seen = seen || released[r] == v;
      if (seen) continue;
      released[num_released++] = v;
      const int buf = plan.pool_buffer[static_cast<size_t>(v)];
      if (buf < 0 || buf == plan.pool_buffer[out]) continue;
      free_list[{values[static_cast<size_t>(v)].rows,
                 values[static_cast<size_t>(v)].cols}]
          .push_back(buf);
    }
  }

  for (const Plan::BufferSpec& b : plan.buffers) plan.pool_bytes += b.bytes;
  for (const Plan::OutputSpec& o : plan.outputs) {
    plan.output_bytes += o.bytes;
  }
  plan.planned_peak_bytes = plan.pool_bytes + plan.output_bytes;
  return plan;
}

}  // namespace sgnn::opgraph

// Op-graph over the dense/sparse kernels — recording side.
//
// Spectral filters spend their time in short chains of SpMM / Scale / Axpy
// over n x F representations (paper Fig. 2: propagation dominates both time
// and peak memory). The polynomial-basis filters record each K-hop stream as
// a small SSA value DAG that a fusion pass (fusion.h) and a liveness-based
// memory planner (planner.h) rewrite before the executor (executor.h)
// replays it onto the existing tensor kernels.
//
// Layering: opgraph sits between tensor and {sparse, core} in the include
// DAG. It never includes sparse/ — the sparse propagation operator is
// abstracted behind SpmmOperator, and the CSR-backed adapter
// (filters::CsrSpmmOperator) lives in core/filter.h where both layers are
// visible.
//
// Determinism contract: a recorded graph executes the *same kernel calls in
// the same order on the same float values* as the recording lists them, so
// results are bit-identical at any thread count (the kernels themselves
// chunk independently of thread count; see docs/DETERMINISM.md) and under
// any fusion or buffer plan.

#ifndef SGNN_OPGRAPH_GRAPH_H_
#define SGNN_OPGRAPH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::opgraph {

/// SSA value handle. Values are graph inputs (external matrices) or the
/// single output of one node; ids are dense and topologically ordered by
/// construction.
using ValueId = int32_t;
inline constexpr ValueId kNoValue = -1;

/// Abstract sparse propagation operator (Ã in the paper's recurrences).
/// Keeps opgraph below sparse/ in the include DAG; core/filter.h adapts
/// sparse::CsrMatrix onto this interface.
class SpmmOperator {
 public:
  virtual ~SpmmOperator() = default;

  /// Dimension of the (square) operator.
  virtual int64_t n() const = 0;

  /// out = A x. `out` is pre-shaped (n, x.cols()) and never aliases x.
  virtual void Apply(const Matrix& x, Matrix* out) const = 0;

  /// out = ca·(A x) + ci·in1 + cp·in2, a null in1 or in2 dropping its term:
  /// one fused recurrence hop (OpKind::kFusedSpmmAffine). The default
  /// replays Apply, Scale(ca), Axpy(ci, in1), Axpy(cp, in2); an operator
  /// with a fused kernel overrides it with the same bits. `out` aliases
  /// none of x, in1 and in2.
  virtual void ApplyAffine(const Matrix& x, float ca, const Matrix* in1,
                           float ci, const Matrix* in2, float cp,
                           Matrix* out) const;
};

/// Node taxonomy (docs/OPGRAPH.md). kFusedSpmmAffine only appears after the
/// fusion pass; the builder never records it directly.
enum class OpKind : uint8_t {
  kZero,             ///< out = 0 (fresh accumulator)
  kSpmm,             ///< out = A·in0
  kScale,            ///< out = alpha·in0
  kAxpy,             ///< out = alpha·in0 + in1 (in1 is the accumulate side)
  kFusedSpmmAffine,  ///< out = ca·(A·in0) + ci·in1 + cp·in2
};

/// One recorded operation. At most three inputs; exactly one output value.
struct Node {
  OpKind kind = OpKind::kZero;
  float alpha = 0.0f;  ///< kScale / kAxpy coefficient
  /// kFusedSpmmAffine coefficients: out = ca·(A·in0) + ci·in1 + cp·in2,
  /// one SpmmOperator::ApplyAffine call. The CSR operator applies the tail
  /// as it stores each SpMM output row; operators without a fused kernel
  /// replay SpMM, Scale(ca), Axpy(ci, in1), Axpy(cp, in2). Either way each
  /// element gets the unfused chain's operations in its order.
  float ca = 0.0f, ci = 0.0f, cp = 0.0f;
  const SpmmOperator* spmm = nullptr;  ///< kSpmm / kFusedSpmmAffine
  ValueId in0 = kNoValue;
  ValueId in1 = kNoValue;
  ValueId in2 = kNoValue;  ///< only used by kFusedSpmmAffine
  ValueId out = kNoValue;
};

/// Per-value metadata.
struct ValueInfo {
  int64_t rows = 0;
  int64_t cols = 0;
  /// Non-null for graph inputs: the externally owned matrix read in place.
  const Matrix* external = nullptr;
  /// Non-null for marked outputs: the caller-owned destination matrix.
  Matrix* output = nullptr;
  /// Index of the defining node, or -1 for inputs.
  int def = -1;

  bool is_input() const { return external != nullptr; }
  size_t bytes() const {
    return static_cast<size_t>(rows) * static_cast<size_t>(cols) *
           sizeof(float);
  }
};

/// Builder + storage for a recorded DAG. All shapes are validated at record
/// time; node order is a topological schedule by construction and is the
/// order the executor replays.
class Graph {
 public:
  explicit Graph(Device device) : device_(device) {}

  Device device() const { return device_; }

  /// Registers an externally owned matrix as a graph input. The matrix must
  /// outlive execution and live on the graph's device.
  ValueId Input(const Matrix* m);

  /// out = 0 with the given shape (the zero-filled accumulator seed).
  ValueId Zero(int64_t rows, int64_t cols);

  /// out = A·x. The operator must outlive execution.
  ValueId Spmm(const SpmmOperator* a, ValueId x);

  /// out = alpha·x.
  ValueId Scale(float alpha, ValueId x);

  /// out = alpha·x + y. `y` is the accumulate side (the in-place target),
  /// which the planner may alias when y dies here.
  ValueId Axpy(float alpha, ValueId x, ValueId y);

  /// Pins `v` to the caller-owned destination `dest`. Each destination may
  /// be marked once; inputs may be marked (the executor copies them out).
  void MarkOutput(ValueId v, Matrix* dest);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<ValueInfo>& values() const { return values_; }
  int num_values() const { return static_cast<int>(values_.size()); }

  int64_t rows(ValueId v) const { return At(v).rows; }
  int64_t cols(ValueId v) const { return At(v).cols; }

  /// Number of consuming node references per value (marked outputs are not
  /// counted; fusion checks ValueInfo::output separately).
  std::vector<int> UseCounts() const;

  /// Replaces the node list (fusion rewrite). The new list must define every
  /// value that is still referenced; validated by the planner.
  void ReplaceNodes(std::vector<Node> nodes);

 private:
  const ValueInfo& At(ValueId v) const;
  ValueId NewValue(int64_t rows, int64_t cols, int def);
  ValueId AddNode(Node node, int64_t rows, int64_t cols);

  Device device_;
  std::vector<Node> nodes_;
  std::vector<ValueInfo> values_;
};

}  // namespace sgnn::opgraph

#endif  // SGNN_OPGRAPH_GRAPH_H_

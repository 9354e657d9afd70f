#include "opgraph/graph.h"

#include "tensor/ops.h"

namespace sgnn::opgraph {

void SpmmOperator::ApplyAffine(const Matrix& x, float ca, const Matrix* in1,
                               float ci, const Matrix* in2, float cp,
                               Matrix* out) const {
  SGNN_CHECK(out != in1 && out != in2,
             "ApplyAffine: output must not alias a tail input");
  // The unfused chain's kernels in its order: SpMM, Scale, Axpy(ci),
  // Axpy(cp).
  Apply(x, out);
  ops::Scale(ca, out);
  if (in1 != nullptr) ops::Axpy(ci, *in1, out);
  if (in2 != nullptr) ops::Axpy(cp, *in2, out);
}

const ValueInfo& Graph::At(ValueId v) const {
  SGNN_CHECK(v >= 0 && v < num_values(), "opgraph: value id out of range");
  return values_[static_cast<size_t>(v)];
}

ValueId Graph::NewValue(int64_t rows, int64_t cols, int def) {
  SGNN_CHECK(rows >= 0 && cols >= 0, "opgraph: negative value shape");
  ValueInfo info;
  info.rows = rows;
  info.cols = cols;
  info.def = def;
  values_.push_back(info);
  return static_cast<ValueId>(values_.size() - 1);
}

ValueId Graph::AddNode(Node node, int64_t rows, int64_t cols) {
  const int def = static_cast<int>(nodes_.size());
  node.out = NewValue(rows, cols, def);
  nodes_.push_back(node);
  return node.out;
}

ValueId Graph::Input(const Matrix* m) {
  SGNN_CHECK(m != nullptr, "opgraph: null input matrix");
  SGNN_CHECK(m->device() == device_,
             "opgraph: input matrix on the wrong device");
  const ValueId v = NewValue(m->rows(), m->cols(), /*def=*/-1);
  values_[static_cast<size_t>(v)].external = m;
  return v;
}

ValueId Graph::Zero(int64_t rows, int64_t cols) {
  Node n;
  n.kind = OpKind::kZero;
  return AddNode(n, rows, cols);
}

ValueId Graph::Spmm(const SpmmOperator* a, ValueId x) {
  SGNN_CHECK(a != nullptr, "opgraph: null spmm operator");
  const ValueInfo& xi = At(x);
  SGNN_CHECK(xi.rows == a->n(), "opgraph: spmm dimension mismatch");
  Node n;
  n.kind = OpKind::kSpmm;
  n.spmm = a;
  n.in0 = x;
  return AddNode(n, a->n(), xi.cols);
}

ValueId Graph::Scale(float alpha, ValueId x) {
  const ValueInfo& xi = At(x);
  Node n;
  n.kind = OpKind::kScale;
  n.alpha = alpha;
  n.in0 = x;
  return AddNode(n, xi.rows, xi.cols);
}

ValueId Graph::Axpy(float alpha, ValueId x, ValueId y) {
  const ValueInfo& xi = At(x);
  const ValueInfo& yi = At(y);
  SGNN_CHECK(xi.rows == yi.rows && xi.cols == yi.cols,
             "opgraph: axpy shape mismatch");
  Node n;
  n.kind = OpKind::kAxpy;
  n.alpha = alpha;
  n.in0 = x;
  n.in1 = y;
  return AddNode(n, yi.rows, yi.cols);
}

void Graph::MarkOutput(ValueId v, Matrix* dest) {
  SGNN_CHECK(dest != nullptr, "opgraph: null output destination");
  SGNN_CHECK(v >= 0 && v < num_values(), "opgraph: value id out of range");
  ValueInfo& info = values_[static_cast<size_t>(v)];
  SGNN_CHECK(info.output == nullptr, "opgraph: value already marked output");
  for (const ValueInfo& other : values_) {
    SGNN_CHECK(other.output != dest,
               "opgraph: destination already bound to another value");
  }
  info.output = dest;
}

std::vector<int> Graph::UseCounts() const {
  std::vector<int> uses(values_.size(), 0);
  for (const Node& n : nodes_) {
    for (const ValueId v : {n.in0, n.in1, n.in2}) {
      if (v != kNoValue) ++uses[static_cast<size_t>(v)];
    }
  }
  return uses;
}

void Graph::ReplaceNodes(std::vector<Node> nodes) {
  // Re-home the `def` indices: values defined by dropped nodes keep def = -2
  // (dead), which the planner skips.
  for (ValueInfo& info : values_) {
    if (info.def >= 0) info.def = -2;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const ValueId out = nodes[i].out;
    SGNN_CHECK(out >= 0 && out < num_values(),
               "opgraph: rewritten node with invalid output value");
    values_[static_cast<size_t>(out)].def = static_cast<int>(i);
  }
  nodes_ = std::move(nodes);
}

}  // namespace sgnn::opgraph

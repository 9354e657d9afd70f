// Linear layers and MLPs — the paper's transformation operations φ0 / φ1.
//
// Decoupled spectral GNNs wrap the filter as H = φ1(g(L̃) · φ0(X)); under
// mini-batch training φ0 is empty (Table 4) and only φ1 trains on batches.

#ifndef SGNN_NN_MLP_H_
#define SGNN_NN_MLP_H_

#include <vector>

#include "nn/parameter.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace sgnn::nn {

/// A fully connected layer y = xW + b with manual gradients.
class Linear {
 public:
  Linear() = default;
  Linear(int64_t in_dim, int64_t out_dim, Device device = Device::kAccel);

  /// Glorot weight init, zero bias.
  void Init(Rng* rng);

  int64_t in_dim() const { return w_.value().rows(); }
  int64_t out_dim() const { return w_.value().cols(); }

  /// out = x W + b. `out` must be pre-shaped (x.rows, out_dim).
  void Forward(const Matrix& x, Matrix* out) const;

  /// Accumulates dL/dW, dL/db from (x, grad_out); writes dL/dx into grad_in
  /// when non-null. grad_in must be pre-shaped like x.
  void Backward(const Matrix& x, const Matrix& grad_out, Matrix* grad_in);

  void ZeroGrad();
  void AdamStep(const AdamConfig& config, int64_t t);

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  const Parameter& weight() const { return w_; }
  const Parameter& bias() const { return b_; }

 private:
  Parameter w_;
  Parameter b_;
};

/// Multi-layer perceptron with ReLU activations and inverted dropout between
/// layers. Layer count 0 yields the identity function.
class Mlp {
 public:
  Mlp() = default;

  /// Builds `num_layers` linear layers mapping in_dim -> hidden ->...-> out_dim.
  /// num_layers == 0 creates an identity module (used for empty φ0 in MB).
  Mlp(int num_layers, int64_t in_dim, int64_t hidden_dim, int64_t out_dim,
      double dropout, Device device = Device::kAccel);

  void Init(Rng* rng);

  bool empty() const { return layers_.empty(); }
  int64_t out_dim(int64_t in_dim) const;

  /// Forward pass. In training mode applies dropout (using `rng`) and caches
  /// activations for Backward. In eval mode (`train` = false) is pure.
  void Forward(const Matrix& x, Matrix* out, bool train, Rng* rng);

  /// Backward through the cached activations of the last training Forward.
  /// Writes dL/dx into grad_in when non-null (pre-shaped like the input).
  void Backward(const Matrix& grad_out, Matrix* grad_in);

  /// No-grad serving forward: no dropout, no activation caching, and const —
  /// it can never invalidate training state. Peak memory is the two live
  /// layer activations instead of the per-layer input/pre-activation/mask
  /// caches a training Forward retains (asserted in tests/serve_test.cc);
  /// this is the pass the inference engine (serve/engine.h) runs per batch.
  /// Numerically identical to Forward(x, out, /*train=*/false, nullptr).
  void ForwardInference(const Matrix& x, Matrix* out) const;

  void ZeroGrad();
  void AdamStep(const AdamConfig& config, int64_t t);

  std::vector<Linear>& layers() { return layers_; }
  const std::vector<Linear>& layers() const { return layers_; }
  double dropout() const { return dropout_; }

 private:
  std::vector<Linear> layers_;
  double dropout_ = 0.0;
  Device device_ = Device::kAccel;
  // Training caches: inputs to each layer, pre-activation outputs, dropout masks.
  std::vector<Matrix> inputs_;
  std::vector<Matrix> preacts_;
  std::vector<Matrix> masks_;
};

}  // namespace sgnn::nn

#endif  // SGNN_NN_MLP_H_

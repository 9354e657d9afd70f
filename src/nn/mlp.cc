#include "nn/mlp.h"

#include "tensor/ops.h"

namespace sgnn::nn {

Linear::Linear(int64_t in_dim, int64_t out_dim, Device device)
    : w_(in_dim, out_dim, device), b_(1, out_dim, device) {}

void Linear::Init(Rng* rng) {
  w_.InitGlorot(rng);
  b_.InitConstant(0.0f);
}

void Linear::Forward(const Matrix& x, Matrix* out) const {
  ops::Gemm(x, w_.value(), out);
  ops::AddRowBroadcast(b_.value(), out);
}

void Linear::Backward(const Matrix& x, const Matrix& grad_out,
                      Matrix* grad_in) {
  // dW += x^T g ; db += colsum(g) ; dx = g W^T.
  Matrix dw(w_.value().rows(), w_.value().cols(), w_.grad().device());
  ops::GemmTransA(x, grad_out, &dw);
  ops::Axpy(1.0f, dw, &w_.grad());
  Matrix db(1, b_.value().cols(), b_.grad().device());
  ops::ColumnSum(grad_out, &db);
  ops::Axpy(1.0f, db, &b_.grad());
  if (grad_in != nullptr) {
    ops::GemmTransB(grad_out, w_.value(), grad_in);
  }
}

void Linear::ZeroGrad() {
  w_.ZeroGrad();
  b_.ZeroGrad();
}

void Linear::AdamStep(const AdamConfig& config, int64_t t) {
  w_.AdamStep(config, t);
  b_.AdamStep(config, t);
}

Mlp::Mlp(int num_layers, int64_t in_dim, int64_t hidden_dim, int64_t out_dim,
         double dropout, Device device)
    : dropout_(dropout), device_(device) {
  SGNN_CHECK(num_layers >= 0, "Mlp: negative layer count");
  int64_t cur = in_dim;
  for (int i = 0; i < num_layers; ++i) {
    const int64_t next = (i == num_layers - 1) ? out_dim : hidden_dim;
    layers_.emplace_back(cur, next, device);
    cur = next;
  }
}

void Mlp::Init(Rng* rng) {
  for (auto& layer : layers_) layer.Init(rng);
}

int64_t Mlp::out_dim(int64_t in_dim) const {
  return layers_.empty() ? in_dim : layers_.back().out_dim();
}

void Mlp::Forward(const Matrix& x, Matrix* out, bool train, Rng* rng) {
  if (layers_.empty()) {
    *out = x;
    return;
  }
  if (train) {
    inputs_.clear();
    preacts_.clear();
    masks_.clear();
  }
  Matrix cur = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const bool last = (l + 1 == layers_.size());
    Matrix y(cur.rows(), layers_[l].out_dim(), device_);
    layers_[l].Forward(cur, &y);
    if (train) inputs_.push_back(cur);
    if (!last) {
      if (train) {
        preacts_.push_back(y);  // cache pre-activation for ReLU backward
      }
      ops::ReluInPlace(&y);
      // Inverted dropout (train only). The mask draw stays serial: it
      // consumes the run's Rng stream in element order.
      if (train && dropout_ > 0.0) {
        SGNN_CHECK(rng != nullptr, "Mlp: dropout requires rng in train mode");
        Matrix mask(y.rows(), y.cols(), device_);
        const float scale = static_cast<float>(1.0 / (1.0 - dropout_));
        float* md = mask.data();
        for (int64_t i = 0; i < mask.size(); ++i) {
          md[i] = rng->Bernoulli(dropout_) ? 0.0f : scale;
        }
        ops::MulInPlace(mask, &y);
        masks_.push_back(std::move(mask));
      } else if (train) {
        masks_.emplace_back();  // placeholder keeps indices aligned
      }
    }
    cur = std::move(y);
  }
  *out = std::move(cur);
}

void Mlp::ForwardInference(const Matrix& x, Matrix* out) const {
  if (layers_.empty()) {
    *out = x;
    return;
  }
  Matrix cur = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Matrix y(cur.rows(), layers_[l].out_dim(), device_);
    layers_[l].Forward(cur, &y);
    if (l + 1 != layers_.size()) ops::ReluInPlace(&y);
    cur = std::move(y);
  }
  *out = std::move(cur);
}

void Mlp::Backward(const Matrix& grad_out, Matrix* grad_in) {
  if (layers_.empty()) {
    if (grad_in != nullptr) ops::Copy(grad_out, grad_in);
    return;
  }
  SGNN_CHECK(inputs_.size() == layers_.size(),
             "Mlp: Backward requires a prior training-mode Forward");
  Matrix grad = grad_out;
  for (size_t li = layers_.size(); li-- > 0;) {
    const bool last = (li + 1 == layers_.size());
    if (!last) {
      // Undo dropout then ReLU.
      if (!masks_.empty() && masks_[li].size() > 0) {
        ops::MulInPlace(masks_[li], &grad);
      }
      ops::ReluBackwardInPlace(preacts_[li], &grad);
    }
    Matrix* gin = nullptr;
    Matrix gbuf;
    if (li > 0 || grad_in != nullptr) {
      gbuf = Matrix(inputs_[li].rows(), inputs_[li].cols(), device_);
      gin = &gbuf;
    }
    layers_[li].Backward(inputs_[li], grad, gin);
    if (li == 0) {
      if (grad_in != nullptr) *grad_in = std::move(gbuf);
      break;
    }
    grad = std::move(gbuf);
  }
}

void Mlp::ZeroGrad() {
  for (auto& layer : layers_) layer.ZeroGrad();
}

void Mlp::AdamStep(const AdamConfig& config, int64_t t) {
  for (auto& layer : layers_) layer.AdamStep(config, t);
}

}  // namespace sgnn::nn

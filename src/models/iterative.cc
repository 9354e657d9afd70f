#include "models/iterative.h"

#include <utility>

#include "core/registry.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::models {

namespace {

/// One iterative layer: h -> ReLU(g(L̃) h W + b). Caches what backward needs.
struct Layer {
  std::unique_ptr<filters::SpectralFilter> filter;  // one-hop
  nn::Linear linear;
  // Caches from the last training forward.
  Matrix propagated;  // g(L̃) h^j
  Matrix preact;      // propagated W + b
};

}  // namespace

TrainResult TrainIterative(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric,
                           const IterativeConfig& config) {
  TrainResult result;
  const TrainConfig& base = config.base;
  result.status = CheckTrainConfig("TrainIterative", base);
  if (!result.status.ok()) return result;
  EpochLoop loop(base, &result);
  Rng rng(base.seed * 0x94D049BB133111EBULL + 37);

  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, base.rho);
  norm.MoveToDevice(Device::kAccel);
  Matrix x = g.features.CloneTo(Device::kAccel);
  filters::FilterContext ctx{&norm, Device::kAccel};

  const int64_t fi = g.features.cols();
  std::vector<Layer> layers(static_cast<size_t>(config.layers));
  int64_t in_dim = fi;
  for (int j = 0; j < config.layers; ++j) {
    auto& layer = layers[static_cast<size_t>(j)];
    auto filter = filters::CreateFilter(config.layer_filter, /*hops=*/1, {},
                                        in_dim);
    if (!filter.ok()) {
      result.status = filter.status();
      return result;
    }
    layer.filter = filter.MoveValue();
    layer.filter->ResetParameters(&rng);
    const int64_t out_dim =
        (j + 1 == config.layers) ? g.num_classes : base.hidden;
    layer.linear = nn::Linear(in_dim, out_dim, Device::kAccel);
    layer.linear.Init(&rng);
    in_dim = out_dim;
  }

  auto forward = [&](bool train, Matrix* logits) {
    Matrix h = x;
    for (int j = 0; j < config.layers; ++j) {
      auto& layer = layers[static_cast<size_t>(j)];
      Matrix prop;
      layer.filter->Forward(ctx, h, &prop, train);
      Matrix z(prop.rows(), layer.linear.out_dim(), Device::kAccel);
      layer.linear.Forward(prop, &z);
      if (train) {
        layer.propagated = prop;
        layer.preact = z;
      }
      if (j + 1 < config.layers) ops::ReluInPlace(&z);
      h = std::move(z);
    }
    *logits = std::move(h);
  };

  auto backward = [&](const Matrix& grad_logits) {
    Matrix grad = grad_logits;
    for (int j = config.layers - 1; j >= 0; --j) {
      auto& layer = layers[static_cast<size_t>(j)];
      // Undo the ReLU of this layer's output.
      if (j + 1 < config.layers) ops::ReluBackwardInPlace(layer.preact, &grad);
      Matrix grad_prop(layer.propagated.rows(), layer.propagated.cols(),
                       Device::kAccel);
      layer.linear.Backward(layer.propagated, grad, &grad_prop);
      Matrix grad_h;
      layer.filter->Backward(ctx, grad_prop, j > 0 ? &grad_h : nullptr);
      layer.filter->ClearCache();
      if (j > 0) grad = std::move(grad_h);
    }
  };

  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    Matrix logits;
    forward(/*train=*/true, &logits);
    EpochOutput out;
    out.grad = Matrix(logits.rows(), logits.cols(), Device::kAccel);
    out.loss =
        nn::SoftmaxCrossEntropy(logits, g.labels, splits.train, &out.grad);
    for (auto& layer : layers) {
      layer.linear.ZeroGrad();
      layer.filter->params().ZeroGrad();
    }
    backward(out.grad);
    ++step;
    for (auto& layer : layers) {
      layer.linear.AdamStep(base.weights_opt, step);
      layer.filter->params().AdamStep(base.filter_opt, step);
    }
    out.live.push_back(std::move(logits));
    return out;
  };
  bodies.evaluate = [&] {
    Matrix elogits;
    forward(/*train=*/false, &elogits);
    if (loop.NewBest(EvaluateMetric(metric, elogits, g.labels, splits.val))) {
      result.test_metric =
          EvaluateMetric(metric, elogits, g.labels, splits.test);
      result.test_logits = elogits.CloneTo(Device::kHost);
    }
  };
  bodies.infer = [&] {
    Matrix logits;
    forward(/*train=*/false, &logits);
  };
  loop.Run(bodies);
  return result;
}

}  // namespace sgnn::models

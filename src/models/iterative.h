// Iterative spectral architecture (paper Section 2.1 / Appendix A.1).
//
// Table 1 marks several models "I": each hop of propagation is interleaved
// with a weight transformation and non-linearity,
//   H^{j+1} = ReLU( g_j(L̃) H^j W_j ),
// where g_j is a one-hop spectral filter with its own parameters. The paper
// argues iterative and decoupled architectures carry the same propagation
// expressiveness; the architecture ablation bench compares them empirically
// (accuracy, per-epoch time, memory).

#ifndef SGNN_MODELS_ITERATIVE_H_
#define SGNN_MODELS_ITERATIVE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/filter.h"
#include "graph/graph.h"
#include "models/trainer.h"

namespace sgnn::models {

/// Iterative-architecture configuration.
struct IterativeConfig {
  TrainConfig base;
  /// Number of propagation+transformation layers J.
  int layers = 2;
  /// One-hop filter instantiated per layer ("linear", "var_linear",
  /// "fbgnn1", "acmgnn1", "fagnn", ...). Each layer owns its parameters.
  std::string layer_filter = "linear";
};

/// Trains the iterative spectral model: per-layer one-hop filters g_j
/// interleaved with Linear + ReLU transformations, softmax head on top.
/// An unknown `layer_filter` returns CreateFilter's NotFound status.
TrainResult TrainIterative(const graph::Graph& g, const graph::Splits& splits,
                           graph::Metric metric, const IterativeConfig& config);

}  // namespace sgnn::models

#endif  // SGNN_MODELS_ITERATIVE_H_

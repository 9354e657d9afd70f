// Link-prediction pipeline (paper Section 6.1.2, Figure 6).
//
// MB-only by necessity: the model scores κ·m positive/negative node pairs
// through an MLP on Hadamard products of filtered embeddings, so the
// transformation cost O(κ m F²) dominates — the figure's takeaway.

#ifndef SGNN_MODELS_LINKPRED_H_
#define SGNN_MODELS_LINKPRED_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/filter.h"
#include "graph/graph.h"
#include "models/trainer.h"

namespace sgnn::models {

/// Link-prediction configuration on top of TrainConfig.
struct LinkPredConfig {
  TrainConfig base;
  /// Negative samples per positive edge (paper's κ is 2-10).
  int neg_ratio = 2;
};

/// Runs decoupled MB link prediction with the given filter: precompute
/// filtered embeddings, then train an MLP scorer on edge batches. The
/// result's test_metric is the ROC-AUC on 20% of the edges, held out as
/// test positives with their negatives, and its final_train_loss the
/// last batch's binary cross-entropy. There are no eval rounds, so
/// val_metric stays 0. A batch size below 1 or an FB-only filter returns
/// InvalidArgument.
TrainResult TrainLinkPrediction(const graph::Graph& g,
                                filters::SpectralFilter* filter,
                                const LinkPredConfig& config);

}  // namespace sgnn::models

#endif  // SGNN_MODELS_LINKPRED_H_

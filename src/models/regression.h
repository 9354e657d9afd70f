// Graph signal regression (paper Section 6.1.3, Table 7).
//
// Fully supervised: given input signal x and target z = U ĝ*(Λ) Uᵀ x built
// from the exact eigendecomposition of L̃ on a small graph, the filter's
// coefficients are trained to minimize MSE; R² measures how well the filter
// family can realize the target frequency response.

#ifndef SGNN_MODELS_REGRESSION_H_
#define SGNN_MODELS_REGRESSION_H_

#include <functional>
#include <string>

#include "core/filter.h"
#include "eval/eigen.h"
#include "graph/graph.h"
#include "models/trainer.h"

namespace sgnn::models {

/// Signal-regression configuration.
struct RegressionConfig {
  /// Deliberately tight optimization budget: the paper's Table 7 separates
  /// filters by how *trainable* their bases are (conditioning and init),
  /// not by the best polynomial of degree K — a generous budget would let
  /// every variable basis reach the same optimum.
  int epochs = 60;
  nn::AdamConfig filter_opt{1e-2, 0.9, 0.999, 1e-8, 0.0};
  double rho = 0.5;
  uint64_t seed = 1;
};

/// Outcome of one regression run.
struct RegressionResult {
  double r2 = 0.0;
  double final_mse = 0.0;
};

/// Precomputed regression problem shared across filters: graph spectrum and
/// input signals.
struct RegressionProblem {
  sparse::CsrMatrix norm;        ///< normalized adjacency Ã
  eval::EigenDecomposition eig;  ///< spectrum of L̃ = I - Ã
  Matrix x;                      ///< 4 random input signals (n x 4)
};

/// Builds the shared problem for a graph (eigendecomposes L̃; n <= ~1500).
RegressionProblem BuildRegressionProblem(const graph::Graph& g,
                                         const RegressionConfig& config);

/// Trains `filter`'s coefficients to regress the target response g*.
/// Fixed filters are evaluated without training (their response is frozen);
/// a single global scale is fitted analytically for fairness.
RegressionResult RunSignalRegression(const RegressionProblem& problem,
                                     const std::function<double(double)>& g_star,
                                     filters::SpectralFilter* filter,
                                     const RegressionConfig& config);

}  // namespace sgnn::models

#endif  // SGNN_MODELS_REGRESSION_H_

#include "models/regression.h"

#include <cmath>

#include "eval/metrics.h"
#include "nn/loss.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::models {

namespace {

/// Random input signal channels per regression problem.
constexpr int64_t kSignalDim = 4;

}  // namespace

RegressionProblem BuildRegressionProblem(const graph::Graph& g,
                                         const RegressionConfig& config) {
  RegressionProblem problem;
  problem.norm = sparse::NormalizeAdjacency(g.adj, config.rho);
  Matrix lap = eval::DenseLaplacian(problem.norm);
  auto eig = eval::JacobiEigen(lap);
  SGNN_CHECK(eig.ok(), "regression graph eigendecomposition failed");
  problem.eig = eig.MoveValue();
  Rng rng(config.seed * 0xA24BAED4963EE407ULL + 19);
  problem.x = Matrix(g.n, kSignalDim, Device::kHost);
  problem.x.FillNormal(&rng);
  return problem;
}

RegressionResult RunSignalRegression(
    const RegressionProblem& problem,
    const std::function<double(double)>& g_star,
    filters::SpectralFilter* filter, const RegressionConfig& config) {
  RegressionResult result;
  Rng rng(config.seed * 0xE220A8397B1DCDAFULL + 23);
  filter->ResetParameters(&rng);

  // Exact spectral target z = U g*(Λ) Uᵀ x.
  std::vector<double> response(problem.eig.values.size());
  for (size_t i = 0; i < response.size(); ++i) {
    // Clamp eigenvalues into [0, 2] against numerical round-off.
    const double lam = std::min(2.0, std::max(0.0, problem.eig.values[i]));
    response[i] = g_star(lam);
  }
  const Matrix target = eval::SpectralApply(problem.eig, response, problem.x);

  filters::FilterContext ctx{&problem.norm, Device::kHost};

  if (filter->type() == filters::FilterType::kFixed) {
    // Fixed filter: fit only a global scale s = <y, z>/<y, y>.
    Matrix y;
    filter->Forward(ctx, problem.x, &y, /*cache=*/false);
    const double yy = ops::Dot(y, y);
    const double yz = ops::Dot(y, target);
    const double s = yy > 1e-12 ? yz / yy : 0.0;
    ops::Scale(static_cast<float>(s), &y);
    result.r2 = eval::R2Score(y, target);
    result.final_mse = 0.0;
    return result;
  }

  int64_t step = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    Matrix y;
    filter->Forward(ctx, problem.x, &y, /*cache=*/true);
    Matrix grad(y.rows(), y.cols(), Device::kHost);
    result.final_mse = nn::MseLoss(y, target, &grad);
    filter->params().ZeroGrad();
    filter->Backward(ctx, grad, nullptr);
    ++step;
    filter->params().AdamStep(config.filter_opt, step);
    filter->ClearCache();
  }
  Matrix y;
  filter->Forward(ctx, problem.x, &y, /*cache=*/false);
  result.r2 = eval::R2Score(y, target);
  return result;
}

}  // namespace sgnn::models

#include "core/variable_filters.h"

#include <cmath>

#include "tensor/ops.h"

namespace sgnn::filters {

namespace {

/// Adds ±`scale` jitter to each entry (symmetry breaking across seeds).
void Jitter(std::vector<double>* theta, Rng* rng, double scale) {
  if (rng == nullptr) return;
  for (auto& t : *theta) t += rng->Uniform(-scale, scale);
}

/// Binomial coefficient as double.
double Binom(int n, int k) {
  double r = 1.0;
  for (int i = 1; i <= k; ++i) {
    r = r * static_cast<double>(n - k + i) / static_cast<double>(i);
  }
  return r;
}

}  // namespace

// ------------------------------------------------------------ VarMonomial
VarMonomialFilter::VarMonomialFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("var_monomial", FilterType::kVariable, hops, hp) {}

std::vector<double> VarMonomialFilter::DefaultTheta(int hops, Rng* rng) const {
  // GPRGNN-style PPR init with α from the hyperparameters.
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  double w = hp_.alpha;
  for (int k = 0; k <= hops; ++k) {
    theta[static_cast<size_t>(k)] = w;
    w *= (1.0 - hp_.alpha);
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

// ----------------------------------------------------------------- Horner
HornerFilter::HornerFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("horner", FilterType::kVariable, hops, hp) {}

std::vector<double> HornerFilter::DefaultTheta(int hops, Rng* rng) const {
  // Residual-connection coefficients: sign-alternating decay, which starts
  // the filter near the high-pass 1/(I + Ã) response and lets gradient
  // descent bend it (paper Table 7: Horner excels on high frequencies).
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  double w = 0.5;
  for (int k = 0; k <= hops; ++k) {
    theta[static_cast<size_t>(k)] = (k % 2 == 0 ? w : -w);
    w *= 0.75;
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

// -------------------------------------------------------------- Chebyshev
ChebyshevFilter::ChebyshevFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("chebyshev", FilterType::kVariable, hops, hp) {}

PolynomialBasisFilter::Recurrence ChebyshevFilter::RecurrenceAt(int k) const {
  if (k == 1) return Recurrence{1.0, 0.0, 0.0};  // T_1 = Ã
  return Recurrence{2.0, 0.0, -1.0};             // T_k = 2Ã T_{k-1} - T_{k-2}
}

std::vector<double> ChebyshevFilter::DefaultTheta(int hops, Rng* rng) const {
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  for (int k = 0; k <= hops; ++k) {
    theta[static_cast<size_t>(k)] = 1.0 / static_cast<double>(k + 1);
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

// ------------------------------------------------------------- ChebInterp
ChebInterpFilter::ChebInterpFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("chebinterp", FilterType::kVariable, hops, hp) {
  // Precompute the interpolation matrix over the Chebyshev nodes
  // x_κ = cos((κ + 1/2)π / (K+1)).
  const int kp1 = hops + 1;
  interp_.assign(static_cast<size_t>(kp1),
                 std::vector<double>(static_cast<size_t>(kp1), 0.0));
  for (int kappa = 0; kappa < kp1; ++kappa) {
    const double x = std::cos((kappa + 0.5) * M_PI / kp1);
    double prev = 0.0, cur = 1.0;  // T_0(x) = 1
    for (int k = 0; k < kp1; ++k) {
      const double scale = (k == 0 ? 1.0 : 2.0) / static_cast<double>(kp1);
      interp_[static_cast<size_t>(k)][static_cast<size_t>(kappa)] = scale * cur;
      const double next = (k == 0) ? x : 2.0 * x * cur - prev;
      prev = cur;
      cur = next;
    }
  }
}

PolynomialBasisFilter::Recurrence ChebInterpFilter::RecurrenceAt(int k) const {
  if (k == 1) return Recurrence{1.0, 0.0, 0.0};
  return Recurrence{2.0, 0.0, -1.0};
}

std::vector<double> ChebInterpFilter::DefaultTheta(int hops, Rng* rng) const {
  // θ_κ parameterizes the response value at node x_κ; a low-pass ramp
  // ((1 + x_κ)/2) is ChebNetII's recommended starting shape.
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  for (int kappa = 0; kappa <= hops; ++kappa) {
    const double x = std::cos((kappa + 0.5) * M_PI / (hops + 1));
    theta[static_cast<size_t>(kappa)] = 0.5 * (1.0 + x);
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

std::vector<double> ChebInterpFilter::EffectiveTheta(int hops) const {
  const auto& raw = params_.values();
  std::vector<double> eff(static_cast<size_t>(hops) + 1, 0.0);
  for (int k = 0; k <= hops; ++k) {
    double acc = 0.0;
    for (int kappa = 0; kappa <= hops; ++kappa) {
      acc += interp_[static_cast<size_t>(k)][static_cast<size_t>(kappa)] *
             raw[static_cast<size_t>(kappa)];
    }
    eff[static_cast<size_t>(k)] = acc;
  }
  return eff;
}

void ChebInterpFilter::AccumulateRawGrad(const std::vector<double>& eff_grad) {
  auto& grads = params_.grads();
  for (size_t k = 0; k < eff_grad.size(); ++k) {
    for (size_t kappa = 0; kappa < grads.size(); ++kappa) {
      grads[kappa] += interp_[k][kappa] * eff_grad[k];
    }
  }
}

// --------------------------------------------------------------- Clenshaw
ClenshawFilter::ClenshawFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("clenshaw", FilterType::kVariable, hops, hp) {}

PolynomialBasisFilter::Recurrence ClenshawFilter::RecurrenceAt(int k) const {
  if (k == 1) return Recurrence{2.0, 0.0, 0.0};  // U_1 = 2Ã
  return Recurrence{2.0, 0.0, -1.0};
}

std::vector<double> ClenshawFilter::DefaultTheta(int hops, Rng* rng) const {
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  double w = 0.5;
  for (int k = 0; k <= hops; ++k) {
    theta[static_cast<size_t>(k)] = w;
    w *= 0.6;
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

// -------------------------------------------------------------- Bernstein
BernsteinFilter::BernsteinFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("bernstein", FilterType::kVariable, hops, hp) {}

void BernsteinFilter::RecordBasis(opgraph::Graph* graph, opgraph::ValueId x,
                                  const opgraph::SpmmOperator* adj,
                                  const TermEmitter& emit) const {
  // T_k = C(K,k)/2^K (2I - L̃)^{K-k} L̃^k. Maintains l = L̃^k x and applies
  // (I + Ã)^{K-k} per term: K(K+1)/2 + K propagations. Each term's chain
  // updates in place, so the planner keeps l, the term and one SpMM
  // scratch live — constant in K.
  const int big_k = hops();
  const double inv2k = std::pow(0.5, big_k);
  opgraph::ValueId l = x;  // L̃^k x
  for (int k = 0; k <= big_k; ++k) {
    opgraph::ValueId term = l;
    for (int j = 0; j < big_k - k; ++j) {
      term = graph->Axpy(1.0f, graph->Spmm(adj, term), term);  // (I + Ã)
    }
    term = graph->Scale(static_cast<float>(Binom(big_k, k) * inv2k), term);
    emit(k, term);
    if (k < big_k) l = graph->Axpy(-1.0f, graph->Spmm(adj, l), l);  // L̃ l
  }
}

std::vector<double> BernsteinFilter::ScalarBasis(double lambda,
                                                 int hops) const {
  std::vector<double> tau(static_cast<size_t>(hops) + 1);
  const double inv2k = std::pow(0.5, hops);
  for (int k = 0; k <= hops; ++k) {
    tau[static_cast<size_t>(k)] = Binom(hops, k) * inv2k *
                                  std::pow(2.0 - lambda, hops - k) *
                                  std::pow(lambda, k);
  }
  return tau;
}

std::vector<double> BernsteinFilter::DefaultTheta(int hops, Rng* rng) const {
  // Bernstein bases form a partition of unity (after the 2^K scaling), so a
  // low-pass ramp init θ_k = 1 - k/K starts at response (2-λ)/2.
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  for (int k = 0; k <= hops; ++k) {
    theta[static_cast<size_t>(k)] =
        1.0 - static_cast<double>(k) / static_cast<double>(hops > 0 ? hops : 1);
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

// --------------------------------------------------------------- Legendre
LegendreFilter::LegendreFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("legendre", FilterType::kVariable, hops, hp) {}

PolynomialBasisFilter::Recurrence LegendreFilter::RecurrenceAt(int k) const {
  if (k == 1) return Recurrence{1.0, 0.0, 0.0};  // P_1 = Ã
  const double kk = static_cast<double>(k);
  return Recurrence{(2.0 * kk - 1.0) / kk, 0.0, -(kk - 1.0) / kk};
}

std::vector<double> LegendreFilter::DefaultTheta(int hops, Rng* rng) const {
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  for (int k = 0; k <= hops; ++k) {
    theta[static_cast<size_t>(k)] = 1.0 / static_cast<double>(k + 1);
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

// ----------------------------------------------------------------- Jacobi
JacobiFilter::JacobiFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("jacobi", FilterType::kVariable, hops, hp) {}

PolynomialBasisFilter::Recurrence JacobiFilter::RecurrenceAt(int k) const {
  const double a = hp_.jacobi_a, b = hp_.jacobi_b;
  if (k == 1) {
    return Recurrence{(a + b + 2.0) / 2.0, (a - b) / 2.0, 0.0};
  }
  const double kk = static_cast<double>(k);
  const double den = 2.0 * kk * (kk + a + b) * (2.0 * kk + a + b - 2.0);
  const double ca =
      (2.0 * kk + a + b) * (2.0 * kk + a + b - 1.0) * (2.0 * kk + a + b - 2.0) /
      den;
  const double ci = (2.0 * kk + a + b - 1.0) * (a * a - b * b) / den;
  const double cp = -2.0 * (kk + a - 1.0) * (kk + b - 1.0) *
                    (2.0 * kk + a + b) / den;
  return Recurrence{ca, ci, cp};
}

std::vector<double> JacobiFilter::DefaultTheta(int hops, Rng* rng) const {
  std::vector<double> theta(static_cast<size_t>(hops) + 1);
  double w = hp_.alpha;
  for (int k = 0; k <= hops; ++k) {
    theta[static_cast<size_t>(k)] = w;
    w *= (1.0 - hp_.alpha);
  }
  Jitter(&theta, rng, 0.02);
  return theta;
}

// ----------------------------------------------------------------- Favard
FavardFilter::FavardFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("favard", FilterType::kVariable, hops, hp) {}

double FavardFilter::ScaleAt(int k) const {
  // Raw scale parameter kept positive and away from zero.
  const auto& raw = params_.values();
  const double s = raw[static_cast<size_t>(hops() + 1 + k)];
  return std::max(std::fabs(s), 0.1);
}

double FavardFilter::ShiftAt(int k) const {
  const auto& raw = params_.values();
  return raw[static_cast<size_t>(2 * (hops() + 1) + k)];
}

PolynomialBasisFilter::Recurrence FavardFilter::RecurrenceAt(int k) const {
  // T_k = (Ã T_{k-1} - b_k T_{k-1} - s_{k-1} T_{k-2}) / s_k.
  const double sk = ScaleAt(k);
  const double skm1 = ScaleAt(k - 1 >= 0 ? k - 1 : 0);
  return Recurrence{1.0 / sk, -ShiftAt(k) / sk, k >= 2 ? -skm1 / sk : 0.0};
}

std::vector<double> FavardFilter::DefaultTheta(int hops, Rng* rng) const {
  // Layout: [θ | a (scales) | b (shifts)].
  std::vector<double> raw(static_cast<size_t>(3 * (hops + 1)), 0.0);
  double w = 0.5;
  for (int k = 0; k <= hops; ++k) {
    raw[static_cast<size_t>(k)] = w;
    w *= 0.7;
    raw[static_cast<size_t>(hops + 1 + k)] = 1.0;  // scales start at 1
    raw[static_cast<size_t>(2 * (hops + 1) + k)] = 0.0;
  }
  if (rng != nullptr) {
    for (int k = 0; k <= 2 * hops + 1; ++k) {
      raw[static_cast<size_t>(k)] += rng->Uniform(-0.02, 0.02);
    }
  }
  return raw;
}

std::vector<double> FavardFilter::EffectiveTheta(int hops) const {
  const auto& raw = params_.values();
  return std::vector<double>(raw.begin(), raw.begin() + hops + 1);
}

// --------------------------------------------------------------- OptBasis
OptBasisFilter::OptBasisFilter(int hops, FilterHyperParams hp)
    : PolynomialBasisFilter("optbasis", FilterType::kVariable, hops, hp) {}

void OptBasisFilter::StreamLanczos(
    const FilterContext& ctx, const Matrix& x,
    const std::function<void(int k, const Matrix& term)>& emit) const {
  // Per-column three-term Lanczos orthonormalization against Ã:
  //   w = Ã v_k; α_k = <w, v_k>; w -= α_k v_k + β_k v_{k-1};
  //   β_{k+1} = ||w||; v_{k+1} = w / β_{k+1}.
  const int64_t f = x.cols();
  Matrix v = x;
  // Normalize columns of v_0.
  Matrix norm0(1, f, ctx.device);
  ops::ColumnNorm(v, &norm0);
  Matrix inv0(1, f, ctx.device);
  for (int64_t j = 0; j < f; ++j) {
    const float nv = norm0.at(0, j);
    inv0.at(0, j) = nv > 1e-12f ? 1.0f / nv : 0.0f;
  }
  ops::ColumnScale(inv0, &v);
  // Emitted terms are rescaled by the input column norms so learnable θ stay
  // O(1); the recurrence itself runs on the orthonormal columns.
  auto emit_scaled = [&](int k, const Matrix& vk) {
    Matrix term = vk;
    ops::ColumnScale(norm0, &term);
    emit(k, term);
  };
  emit_scaled(0, v);
  Matrix v_prev(x.rows(), f, ctx.device);  // zeros
  Matrix beta(1, f, ctx.device);           // zeros for k = 0
  Matrix w(x.rows(), f, ctx.device);
  for (int k = 1; k <= hops(); ++k) {
    ctx.Propagate(v, &w);
    Matrix alpha(1, f, ctx.device);
    ops::ColumnDot(w, v, &alpha);
    // w -= alpha ⊙ v + beta ⊙ v_prev.
    Matrix neg_alpha = alpha;
    ops::Scale(-1.0f, &neg_alpha);
    ops::AxpyColumnwise(neg_alpha, v, &w);
    Matrix neg_beta = beta;
    ops::Scale(-1.0f, &neg_beta);
    ops::AxpyColumnwise(neg_beta, v_prev, &w);
    Matrix next_beta(1, f, ctx.device);
    ops::ColumnNorm(w, &next_beta);
    Matrix inv(1, f, ctx.device);
    for (int64_t j = 0; j < f; ++j) {
      const float nb = next_beta.at(0, j);
      inv.at(0, j) = nb > 1e-9f ? 1.0f / nb : 0.0f;
    }
    v_prev = v;
    v = w;
    ops::ColumnScale(inv, &v);
    beta = next_beta;
    emit_scaled(k, v);
    w = Matrix(x.rows(), f, ctx.device);
  }
}

std::vector<double> OptBasisFilter::ScalarBasis(double lambda,
                                                int hops) const {
  // The realized basis is data-dependent; for response reporting use the
  // Chebyshev proxy (the limiting Lanczos polynomial family on [-1, 1]).
  const double a = 1.0 - lambda;
  std::vector<double> tau(static_cast<size_t>(hops) + 1);
  double prev = 0.0, cur = 1.0;
  tau[0] = 1.0;
  for (int k = 1; k <= hops; ++k) {
    const double next = (k == 1) ? a : 2.0 * a * cur - prev;
    tau[static_cast<size_t>(k)] = next;
    prev = cur;
    cur = next;
  }
  return tau;
}

std::vector<double> OptBasisFilter::DefaultTheta(int, Rng*) const {
  // Sized lazily once the channel count is known (EnsureParams).
  return {};
}

void OptBasisFilter::ResetParameters(Rng* rng) {
  init_seed_ = rng != nullptr ? rng->Next() : 0;
  feature_dim_ = 0;
  params_.Reset({});
  ClearCache();
}

void OptBasisFilter::EnsureParams(int64_t feature_dim) {
  if (feature_dim == feature_dim_ &&
      params_.size() ==
          static_cast<size_t>((hops() + 1) * feature_dim)) {
    return;
  }
  feature_dim_ = feature_dim;
  // Zero-centered init: with an orthonormal basis the first gradient step
  // already points each coefficient at its projection <z, v_k>.
  std::vector<double> theta(
      static_cast<size_t>((hops() + 1) * feature_dim), 0.0);
  if (init_seed_ != 0) {
    Rng rng(init_seed_);
    for (auto& t : theta) t += rng.Uniform(-0.05, 0.05);
  }
  theta[0] = 0.5;  // identity-leaning start on the order-0 term
  params_.Reset(std::move(theta));
}

Matrix OptBasisFilter::ThetaRow(int k, Device device) const {
  Matrix row(1, feature_dim_, device);
  for (int64_t f = 0; f < feature_dim_; ++f) {
    row.at(0, f) = static_cast<float>(
        params_.values()[static_cast<size_t>(k) * feature_dim_ +
                         static_cast<size_t>(f)]);
  }
  return row;
}

void OptBasisFilter::Forward(const FilterContext& ctx, const Matrix& x,
                             Matrix* y, bool cache) {
  EnsureParams(x.cols());
  *y = Matrix(x.rows(), x.cols(), ctx.device);
  if (cache) terms_cache_.clear();
  StreamLanczos(ctx, x, [&](int k, const Matrix& term) {
    ops::AxpyColumnwise(ThetaRow(k, ctx.device), term, y);
    if (cache) terms_cache_.push_back(term);
  });
}

void OptBasisFilter::Backward(const FilterContext& ctx, const Matrix& grad_y,
                              Matrix* grad_x) {
  SGNN_CHECK(terms_cache_.size() == static_cast<size_t>(hops() + 1),
             "OptBasis::Backward requires Forward(cache=true)");
  Matrix coldot(1, feature_dim_, ctx.device);
  for (int k = 0; k <= hops(); ++k) {
    ops::ColumnDot(grad_y, terms_cache_[static_cast<size_t>(k)], &coldot);
    for (int64_t f = 0; f < feature_dim_; ++f) {
      params_.grads()[static_cast<size_t>(k) * feature_dim_ +
                      static_cast<size_t>(f)] += coldot.at(0, f);
    }
  }
  if (grad_x != nullptr) {
    // Straight-through: replay the orthogonalization on the gradient with
    // the current per-channel coefficients.
    *grad_x = Matrix(grad_y.rows(), grad_y.cols(), ctx.device);
    StreamLanczos(ctx, grad_y, [&](int k, const Matrix& term) {
      ops::AxpyColumnwise(ThetaRow(k, ctx.device), term, grad_x);
    });
  }
}

void OptBasisFilter::ClearCache() {
  terms_cache_.clear();
  PolynomialBasisFilter::ClearCache();
}

double OptBasisFilter::Response(double lambda) const {
  // Channel-averaged coefficients over the Chebyshev proxy basis.
  const std::vector<double> tau = ScalarBasis(lambda, hops());
  double acc = 0.0;
  if (feature_dim_ == 0) return 1.0;
  for (int k = 0; k <= hops(); ++k) {
    double mean = 0.0;
    for (int64_t f = 0; f < feature_dim_; ++f) {
      mean += params_.values()[static_cast<size_t>(k) * feature_dim_ +
                               static_cast<size_t>(f)];
    }
    acc += (mean / static_cast<double>(feature_dim_)) *
           tau[static_cast<size_t>(k)];
  }
  return acc;
}

Status OptBasisFilter::Precompute(const FilterContext& ctx, const Matrix& x,
                                  std::vector<Matrix>* terms) {
  terms->clear();
  terms->reserve(static_cast<size_t>(hops()) + 1);
  StreamLanczos(ctx, x,
                [&](int /*k*/, const Matrix& term) { terms->push_back(term); });
  return Status::OK();
}

void OptBasisFilter::CombineTerms(
    const std::vector<const Matrix*>& batch_terms, Matrix* y, bool cache) {
  (void)cache;
  SGNN_CHECK(!batch_terms.empty(), "OptBasis::CombineTerms: no terms");
  EnsureParams(batch_terms[0]->cols());
  *y = Matrix(batch_terms[0]->rows(), batch_terms[0]->cols(),
              batch_terms[0]->device());
  for (size_t k = 0; k < batch_terms.size(); ++k) {
    ops::AxpyColumnwise(ThetaRow(static_cast<int>(k), y->device()),
                        *batch_terms[k], y);
  }
}

void OptBasisFilter::BackwardCombine(
    const std::vector<const Matrix*>& batch_terms, const Matrix& grad_y) {
  Matrix coldot(1, feature_dim_, grad_y.device());
  for (size_t k = 0; k < batch_terms.size(); ++k) {
    ops::ColumnDot(grad_y, *batch_terms[k], &coldot);
    for (int64_t f = 0; f < feature_dim_; ++f) {
      params_.grads()[k * static_cast<size_t>(feature_dim_) +
                      static_cast<size_t>(f)] += coldot.at(0, f);
    }
  }
}

}  // namespace sgnn::filters

// Variable-filter GNNs (paper Section 3.2, Table 1 middle block).
//
// Bases are predetermined; coefficients θ are learned by gradient descent.
// Orthogonal-polynomial bases (Chebyshev, Legendre, Jacobi) operate on
// Ã = I - L̃, whose spectrum lies in [-1, 1] — the numerically stable shifted
// domain used by ChebNetII/JacobiConv implementations; the frequency
// response is reported over λ ∈ [0, 2] as in the paper.

#ifndef SGNN_CORE_VARIABLE_FILTERS_H_
#define SGNN_CORE_VARIABLE_FILTERS_H_

#include <functional>

#include "core/poly_base.h"

namespace sgnn::filters {

/// DAGNN / GPRGNN: monomial basis Ã^k with learnable θ_k (PPR-style init).
class VarMonomialFilter : public PolynomialBasisFilter {
 public:
  explicit VarMonomialFilter(int hops, FilterHyperParams hp = {});

 protected:
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
};

/// HornerGCN / ARMAGNN: monomial basis computed with explicit residual
/// connections; sign-alternating init steers it toward high frequencies.
class HornerFilter : public PolynomialBasisFilter {
 public:
  explicit HornerFilter(int hops, FilterHyperParams hp = {});

 protected:
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
};

/// ChebNet / ChebBase: Chebyshev basis of the first kind on Ã.
class ChebyshevFilter : public PolynomialBasisFilter {
 public:
  explicit ChebyshevFilter(int hops, FilterHyperParams hp = {});

 protected:
  Recurrence RecurrenceAt(int k) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
};

/// ChebNetII: Chebyshev basis with coefficients reparameterized through
/// Chebyshev interpolation at the K+1 Chebyshev nodes.
class ChebInterpFilter : public PolynomialBasisFilter {
 public:
  explicit ChebInterpFilter(int hops, FilterHyperParams hp = {});

 protected:
  Recurrence RecurrenceAt(int k) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
  std::vector<double> EffectiveTheta(int hops) const override;
  void AccumulateRawGrad(const std::vector<double>& eff_grad) override;

 private:
  /// interp_[k][kappa] = (2 - [k==0]) / (K+1) * T_k(x_kappa).
  std::vector<std::vector<double>> interp_;
};

/// ClenshawGCN: Chebyshev basis of the second kind on Ã with residual-style
/// coefficients.
class ClenshawFilter : public PolynomialBasisFilter {
 public:
  explicit ClenshawFilter(int hops, FilterHyperParams hp = {});

 protected:
  Recurrence RecurrenceAt(int k) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
};

/// BernNet: Bernstein basis; K^2/2 propagations, constant live memory.
class BernsteinFilter : public PolynomialBasisFilter {
 public:
  explicit BernsteinFilter(int hops, FilterHyperParams hp = {});

 protected:
  void RecordBasis(opgraph::Graph* graph, opgraph::ValueId x,
                   const opgraph::SpmmOperator* adj,
                   const TermEmitter& emit) const override;
  std::vector<double> ScalarBasis(double lambda, int hops) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
};

/// LegendreNet: Legendre basis on Ã via the three-term recurrence.
class LegendreFilter : public PolynomialBasisFilter {
 public:
  explicit LegendreFilter(int hops, FilterHyperParams hp = {});

 protected:
  Recurrence RecurrenceAt(int k) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
};

/// JacobiConv: Jacobi basis P^{(a,b)} on Ã; a, b are hyperparameters.
class JacobiFilter : public PolynomialBasisFilter {
 public:
  explicit JacobiFilter(int hops, FilterHyperParams hp = {});

 protected:
  Recurrence RecurrenceAt(int k) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
};

/// FavardGNN: learnable orthonormal basis via Favard's theorem. The raw
/// parameter vector stores [θ_0..θ_K | a_0..a_K | b_0..b_K]; basis parameters
/// a (scale, kept positive) and b (shift) receive straight-through gradients
/// of zero (see DESIGN.md), matching the filter's realized spectral response
/// within an epoch.
class FavardFilter : public PolynomialBasisFilter {
 public:
  explicit FavardFilter(int hops, FilterHyperParams hp = {});

  /// The paper's Table 10 omits Favard under MB; we match that.
  bool SupportsMiniBatch() const override { return false; }

 protected:
  Recurrence RecurrenceAt(int k) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;
  std::vector<double> EffectiveTheta(int hops) const override;

 private:
  double ScaleAt(int k) const;  ///< √α_k > 0 from the raw parameter
  double ShiftAt(int k) const;  ///< β_k
};

/// OptBasisGNN: per-channel orthonormal basis derived from the input signal
/// (three-term Lanczos orthogonalization against Ã) with *per-channel*
/// coefficients θ_{k,f} — orthonormality decouples the coefficients, which
/// is the model's fast-convergence advantage (paper Table 7). The realized
/// basis is treated as a constant linear operator during the backward pass.
/// Coefficients are sized lazily to the first input's width.
///
/// The Lanczos coefficients depend on intermediate values (column norms and
/// dots), so this stream is not a recorded affine recurrence: OptBasis runs
/// its own stream and overrides every entry point that would otherwise
/// record the base class's monomial basis.
class OptBasisFilter : public PolynomialBasisFilter {
 public:
  explicit OptBasisFilter(int hops, FilterHyperParams hp = {});

  void ResetParameters(Rng* rng) override;
  void Forward(const FilterContext& ctx, const Matrix& x, Matrix* y,
               bool cache) override;
  void Backward(const FilterContext& ctx, const Matrix& grad_y,
                Matrix* grad_x) override;
  void ClearCache() override;
  double Response(double lambda) const override;
  [[nodiscard]] Status Precompute(const FilterContext& ctx, const Matrix& x,
                                  std::vector<Matrix>* terms) override;
  void CombineTerms(const std::vector<const Matrix*>& batch_terms, Matrix* y,
                    bool cache) override;
  void BackwardCombine(const std::vector<const Matrix*>& batch_terms,
                       const Matrix& grad_y) override;

 protected:
  std::vector<double> ScalarBasis(double lambda, int hops) const override;
  std::vector<double> DefaultTheta(int hops, Rng* rng) const override;

 private:
  /// Streams the column-rescaled Lanczos basis v_k for k = 0..hops; each
  /// term is valid only during the callback.
  void StreamLanczos(const FilterContext& ctx, const Matrix& x,
                     const std::function<void(int k, const Matrix& term)>&
                         emit) const;
  /// (Re)sizes θ to (K+1) x F on first use or width change.
  void EnsureParams(int64_t feature_dim);
  /// θ row for order k as a 1 x F matrix.
  Matrix ThetaRow(int k, Device device) const;

  int64_t feature_dim_ = 0;
  uint64_t init_seed_ = 0;
  std::vector<Matrix> terms_cache_;
};

}  // namespace sgnn::filters

#endif  // SGNN_CORE_VARIABLE_FILTERS_H_

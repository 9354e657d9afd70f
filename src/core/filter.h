// Spectral graph filter framework — the paper's primary contribution.
//
// Every filter realizes the truncated polynomial form (paper Eq. 1)
//   g(L̃; θ) x = Σ_{k=0..K} θ_k T^(k)(L̃) x
// via iterative propagations with the normalized adjacency Ã = I - L̃,
// bypassing eigen-decomposition. A filter exposes:
//   * Forward / Backward over n x F representations (full-batch training),
//   * Precompute emitting per-hop representations (mini-batch training),
//   * a scalar frequency response ĝ(λ) on [0, 2] (spectral analysis),
//   * learnable coefficients θ / γ as a ScalarParams group.
//
// Taxonomy (paper Table 1). The benchmark's 27 filters split along two
// orthogonal axes. The first is WHAT is learned — the FilterType enum
// below:
//   * fixed (7): constant basis and constant coefficients. identity,
//     linear, impulse, monomial, ppr, hk, gaussian — all in
//     fixed_filters.h, as coefficient schedules over PolynomialBasisFilter
//     (poly_base.h).
//   * variable (11): fixed polynomial basis, learnable coefficients θ_k.
//     var_monomial, horner, chebyshev, chebinterp, clenshaw, bernstein,
//     legendre, jacobi, favard, optbasis live in variable_filters.h (again
//     over poly_base.h); var_linear lives in product_filters.h because its
//     learnable form is a product, not a sum (next axis).
//   * bank (9): Q sub-filters mixed by learnable channel weights γ.
//     fbgnn1/2, acmgnn1/2, fagnn are factored two/three-branch banks in
//     product_filters.h; adagnn (per-channel iterative product) is also
//     there; g2cn, gnn_lf_hf, figure are sum-form mixtures realized by
//     MixtureBankFilter in bank_filters.h.
// The second axis is HOW the polynomial is realized — summed hop terms
// (poly_base.h / bank_filters.h, MB-precomputable) versus factored
// products of first-order terms (product_filters.h, inherently sequential
// and therefore FB-only). registry.cc is the single name -> (type, class,
// hyperparameters) table; tensor/parallel.h supplies the thread pool the
// underlying SpMM/GEMM kernels run on.

#ifndef SGNN_CORE_FILTER_H_
#define SGNN_CORE_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "opgraph/graph.h"
#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/status.h"

namespace sgnn::filters {

/// Taxonomy category (paper Table 1).
enum class FilterType {
  kFixed,     ///< constant basis and parameters
  kVariable,  ///< fixed basis, learnable θ
  kBank,      ///< mixture of Q filters with channel weights γ
};

/// Returns "fixed" / "variable" / "bank".
const char* FilterTypeName(FilterType type);

/// Tunable filter hyperparameters (paper Table 1 "HP" column), searched
/// rather than learned.
struct FilterHyperParams {
  double alpha = 0.2;  ///< PPR decay / HK & Gaussian temperature / LF-HF α1
  double alpha2 = 0.2; ///< second-channel α (G2CN, GNN-LF/HF)
  double beta = 0.5;   ///< FAGNN scaling / LF-HF β1 / G2CN center shift
  double beta2 = 0.5;  ///< second-channel β
  double jacobi_a = 1.0;  ///< Jacobi basis a
  double jacobi_b = 1.0;  ///< Jacobi basis b
};

/// Runtime context shared by all filter calls.
struct FilterContext {
  /// Normalized self-looped adjacency Ã = D̄^{ρ-1} Ā D̄^{-ρ}; propagation
  /// uses Ã and L̃ = I - Ã implicitly.
  const sparse::CsrMatrix* prop = nullptr;
  /// Device on which intermediate representations are allocated. The hop
  /// count K is a per-filter property fixed at construction time.
  Device device = Device::kHost;
  /// Optional propagation override (docs/SHARDING.md): when non-null, every
  /// hop applies this operator instead of `prop` — e.g. the sharded
  /// executor, which is bit-identical to `prop->SpMM` at any shard count.
  /// `prop` stays set alongside it for structure queries (n, nnz, response
  /// analysis); filters never dispatch on which path is active.
  const opgraph::SpmmOperator* op = nullptr;

  /// One propagation hop, y = Ã x, through `op` when set, else `prop`.
  /// `y` must be pre-shaped (n, F) and never aliases x.
  void Propagate(const Matrix& x, Matrix* y) const;
};

/// Adapts the CSR propagation matrix Ã onto the op-graph's abstract
/// operator. This is where the opgraph and sparse layers meet: opgraph never
/// includes sparse/, so the adapter lives one layer up, beside the context
/// that holds the matrix.
class CsrSpmmOperator : public opgraph::SpmmOperator {
 public:
  explicit CsrSpmmOperator(const sparse::CsrMatrix* prop) : prop_(prop) {}

  int64_t n() const override { return prop_->n(); }
  void Apply(const Matrix& x, Matrix* out) const override {
    prop_->SpMM(x, out);
  }
  /// The tail is applied as each SpMM output row is stored.
  void ApplyAffine(const Matrix& x, float ca, const Matrix* in1, float ci,
                   const Matrix* in2, float cp, Matrix* out) const override {
    prop_->SpMMAffine(x, ca, in1, ci, in2, cp, out);
  }

 private:
  const sparse::CsrMatrix* prop_;
};

/// Abstract spectral filter.
class SpectralFilter {
 public:
  virtual ~SpectralFilter() = default;

  /// Stable identifier used in tables ("ppr", "chebyshev", ...).
  virtual const std::string& name() const = 0;

  /// Taxonomy category.
  virtual FilterType type() const = 0;

  /// Re-initializes all learnable coefficients (called once per seed).
  virtual void ResetParameters(Rng* rng) = 0;

  /// y = g(L̃; θ) x. When `cache` is true the call retains whatever state
  /// Backward needs (basis terms / layer activations). `y` is allocated by
  /// the callee on ctx.device.
  virtual void Forward(const FilterContext& ctx, const Matrix& x, Matrix* y,
                       bool cache) = 0;

  /// Accumulates dL/dθ into params().grads() using the state cached by the
  /// last Forward, and writes dL/dx into `grad_x` when non-null (allocated
  /// by the callee). Bases are polynomials of the symmetric L̃, so the input
  /// gradient is g(L̃; θ)ᵀ ḡ = g(L̃; θ) ḡ.
  virtual void Backward(const FilterContext& ctx, const Matrix& grad_y,
                        Matrix* grad_x) = 0;

  /// Releases cached forward state.
  virtual void ClearCache() = 0;

  /// Scalar frequency response ĝ(λ), λ ∈ [0, 2], under current parameters.
  virtual double Response(double lambda) const = 0;

  /// True when the filter factors into precomputable per-hop terms, enabling
  /// the decoupled mini-batch scheme (paper Section 2.2).
  virtual bool SupportsMiniBatch() const = 0;

  /// Emits the per-hop representations consumed by the mini-batch trainer:
  /// fixed filters emit one combined matrix; variable filters K+1 basis
  /// terms; banks the concatenation over channels. Host-resident.
  [[nodiscard]] virtual Status Precompute(const FilterContext& ctx,
                                          const Matrix& x,
                                          std::vector<Matrix>* terms) = 0;

  /// Combines precomputed per-hop rows using the current θ: given `terms`
  /// gathered for a batch (same order as Precompute emitted), produces the
  /// batch representation and, in training, exposes θ gradients via
  /// BackwardCombine.
  virtual void CombineTerms(const std::vector<const Matrix*>& batch_terms, Matrix* y,
                            bool cache) = 0;

  /// θ gradients for the last CombineTerms call.
  virtual void BackwardCombine(const std::vector<const Matrix*>& batch_terms,
                               const Matrix& grad_y) = 0;

  /// Learnable coefficient group (empty for fixed filters).
  virtual nn::ScalarParams& params() = 0;
};

/// Shared low-level propagation helpers.
namespace propagate {

/// y = Ã x.
void Adj(const FilterContext& ctx, const Matrix& x, Matrix* y);

/// y = L̃ x = x - Ã x.
void Lap(const FilterContext& ctx, const Matrix& x, Matrix* y);

}  // namespace propagate

}  // namespace sgnn::filters

#endif  // SGNN_CORE_FILTER_H_

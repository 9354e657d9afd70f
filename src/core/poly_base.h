// Shared machinery for polynomial-basis spectral filters.
//
// A PolynomialBasisFilter is defined by (a) a basis stream that emits
// T^(k)(L̃)·x for k = 0..K via iterative propagation, (b) the matching scalar
// recurrence on λ for the frequency response, and (c) a θ parameterization
// (constant for fixed filters, learnable otherwise, possibly reparameterized
// as in ChebNetII's interpolation).
//
// Execution: the basis stream is recorded onto an opgraph::Graph
// (RecordBasis) and run through opgraph::RunPipeline — fuse, plan, execute
// (docs/OPGRAPH.md). Forward, Backward and Precompute all go through that
// one path.
//
// Memory model (matches paper Table 1): fixed filters stream terms and keep
// O(1) live matrices (the planner recycles the recurrence's buffers);
// variable filters cache all K+1 basis terms for the θ-gradient — the
// K-fold RAM/GPU multiplier the paper measures.

#ifndef SGNN_CORE_POLY_BASE_H_
#define SGNN_CORE_POLY_BASE_H_

#include <functional>
#include <string>
#include <vector>

#include "core/filter.h"

namespace sgnn::filters {

/// Callback receiving the recorded graph value for basis term k.
using TermEmitter = std::function<void(int k, opgraph::ValueId term)>;

/// Base class implementing Forward/Backward/Precompute/Response on top of a
/// subclass-provided basis stream.
class PolynomialBasisFilter : public SpectralFilter {
 public:
  PolynomialBasisFilter(std::string name, FilterType type, int hops,
                        FilterHyperParams hp);

  const std::string& name() const override { return name_; }
  FilterType type() const override { return type_; }
  nn::ScalarParams& params() override { return params_; }
  const FilterHyperParams& hyper() const { return hp_; }

  void ResetParameters(Rng* rng) override;
  void Forward(const FilterContext& ctx, const Matrix& x, Matrix* y,
               bool cache) override;
  void Backward(const FilterContext& ctx, const Matrix& grad_y,
                Matrix* grad_x) override;
  void ClearCache() override;
  double Response(double lambda) const override;
  bool SupportsMiniBatch() const override { return true; }
  [[nodiscard]] Status Precompute(const FilterContext& ctx, const Matrix& x,
                    std::vector<Matrix>* terms) override;
  void CombineTerms(const std::vector<const Matrix*>& batch_terms, Matrix* y,
                    bool cache) override;
  void BackwardCombine(const std::vector<const Matrix*>& batch_terms,
                       const Matrix& grad_y) override;

 protected:
  /// Records T^(k)(L̃)·x for k = 0..hops as graph nodes, emitting each term's
  /// value in order; `adj` applies Ã. The default drives RecurrenceAt;
  /// subclasses with irregular bases (Bernstein, the bank channels)
  /// override.
  virtual void RecordBasis(opgraph::Graph* graph, opgraph::ValueId x,
                           const opgraph::SpmmOperator* adj,
                           const TermEmitter& emit) const;

  /// Scalar basis values τ_k(λ) for k = 0..hops (same recurrence on scalars,
  /// with Ã ↦ 1-λ and L̃ ↦ λ).
  virtual std::vector<double> ScalarBasis(double lambda, int hops) const;

  /// Generic three-term recurrence coefficients for hop k >= 1:
  ///   T_k = (ca·Ã + ci·I) T_{k-1} + cp·T_{k-2}
  /// Subclasses using the default RecordBasis/ScalarBasis implement this.
  struct Recurrence {
    double ca = 1.0;  ///< coefficient on Ã T_{k-1}
    double ci = 0.0;  ///< coefficient on T_{k-1}
    double cp = 0.0;  ///< coefficient on T_{k-2}
  };
  virtual Recurrence RecurrenceAt(int k) const;

  /// Default/reset values for the raw learnable parameters (empty => filter
  /// has no learnable state). Called with the configured hop count.
  virtual std::vector<double> DefaultTheta(int hops, Rng* rng) const = 0;

  /// Fixed coefficient vector for kFixed filters (size hops+1).
  virtual std::vector<double> FixedTheta(int hops) const;

  /// Effective per-order coefficients given current raw parameters; default
  /// is the identity map (raw == effective). ChebInterp reparameterizes.
  virtual std::vector<double> EffectiveTheta(int hops) const;

  /// Maps a gradient on effective θ back onto the raw parameter gradient.
  virtual void AccumulateRawGrad(const std::vector<double>& eff_grad);

  /// Hop count configured at construction time (paper's universal K).
  int hops() const { return hops_; }

  FilterHyperParams hp_;
  nn::ScalarParams params_;

  /// Effective θ validated to K+1 entries.
  std::vector<double> CurrentTheta() const;

 private:
  /// Records the basis stream of `x` and runs it through the op-graph
  /// pipeline. When `y` is non-null it receives Σ_k θ_k T_k x; when `terms`
  /// is non-null it receives every basis term, in order. Returns
  /// OutOfMemory when execution newly latched the simulated accelerator
  /// OOM flag (outputs are still fully computed; see opgraph/executor.h).
  [[nodiscard]] Status RunBasis(const FilterContext& ctx, const Matrix& x,
                                Matrix* y,
                                std::vector<Matrix>* terms) const;

  std::string name_;
  FilterType type_;
  int hops_ = 10;
  bool has_cache_ = false;
  std::vector<Matrix> cached_terms_;
};

}  // namespace sgnn::filters

#endif  // SGNN_CORE_POLY_BASE_H_

// Filter-bank GNNs with summation fusion (paper Section 3.3, Eq. 3):
//   g(L̃; γ, θ) = Σ_{q=1..Q} γ_q g_q(L̃; θ_q)
// Channel weights γ_q are learned along with any channel-internal θ.

#ifndef SGNN_CORE_BANK_FILTERS_H_
#define SGNN_CORE_BANK_FILTERS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/poly_base.h"

namespace sgnn::filters {

/// Generic Q-channel mixture. Owns sub-filters; flattens [γ | θ_1 | θ_2 ...]
/// into a single parameter group so trainers see one optimizer target.
class MixtureBankFilter : public SpectralFilter {
 public:
  MixtureBankFilter(std::string name, int hops,
                    std::vector<std::unique_ptr<SpectralFilter>> channels,
                    FilterHyperParams hp);

  const std::string& name() const override { return name_; }
  FilterType type() const override { return FilterType::kBank; }
  nn::ScalarParams& params() override { return params_; }

  void ResetParameters(Rng* rng) override;
  void Forward(const FilterContext& ctx, const Matrix& x, Matrix* y,
               bool cache) override;
  void Backward(const FilterContext& ctx, const Matrix& grad_y,
                Matrix* grad_x) override;
  void ClearCache() override;
  double Response(double lambda) const override;
  bool SupportsMiniBatch() const override;
  [[nodiscard]] Status Precompute(const FilterContext& ctx, const Matrix& x,
                    std::vector<Matrix>* terms) override;
  void CombineTerms(const std::vector<const Matrix*>& batch_terms, Matrix* y,
                    bool cache) override;
  void BackwardCombine(const std::vector<const Matrix*>& batch_terms,
                       const Matrix& grad_y) override;

  size_t num_channels() const { return channels_.size(); }
  SpectralFilter& channel(size_t q) { return *channels_[q]; }

 private:
  /// Pushes current flattened values into channel parameter groups.
  void ScatterParams() const;
  /// Pulls channel gradients back into the flattened gradient vector.
  void GatherGrads();

  std::string name_;
  int hops_;
  FilterHyperParams hp_;
  mutable std::vector<std::unique_ptr<SpectralFilter>> channels_;
  nn::ScalarParams params_;
  std::vector<Matrix> cached_outputs_;           // per-channel y_q (FB)
  std::vector<Matrix> cached_combine_outputs_;   // per-channel y_q (MB)
  std::vector<size_t> term_offsets_;             // channel slices in terms
};

/// G2CN: two fixed squared-Gaussian channels centered on low / high
/// frequencies, learnable channel weights.
std::unique_ptr<MixtureBankFilter> MakeG2cnFilter(int hops,
                                                  FilterHyperParams hp);

/// GNN-LF/HF: PPR channels with (I ∓ β L̃) prefactors emphasizing low / high
/// frequencies, learnable channel weights.
std::unique_ptr<MixtureBankFilter> MakeGnnLfHfFilter(int hops,
                                                     FilterHyperParams hp);

/// FiGURe: Identity + variable Monomial + Chebyshev + Bernstein channels.
std::unique_ptr<MixtureBankFilter> MakeFigureFilter(int hops,
                                                    FilterHyperParams hp);

}  // namespace sgnn::filters

#endif  // SGNN_CORE_BANK_FILTERS_H_

#include "core/bank_filters.h"

#include <cmath>

#include "core/fixed_filters.h"
#include "core/variable_filters.h"
#include "tensor/ops.h"

namespace sgnn::filters {

namespace {

/// Fixed channel of G2CN: Σ_k α^k/k! ((1±β)I - L̃)^{2k} = Σ α^k/k! M^{2k},
/// M = ±β I + Ã, truncated at K/2 terms and normalized so the response peaks
/// at 1 (low channel at λ=0, high channel at λ=2).
class GaussianSquaredChannel : public PolynomialBasisFilter {
 public:
  GaussianSquaredChannel(int hops, double alpha, double beta, bool low)
      : PolynomialBasisFilter(low ? "g2cn_low" : "g2cn_high",
                              FilterType::kFixed, std::max(1, hops / 2), {}),
        alpha_(alpha),
        center_(low ? beta : -beta) {}

 protected:
  std::vector<double> ScalarBasis(double lambda, int hops) const override {
    std::vector<double> tau(static_cast<size_t>(hops) + 1);
    const double m = center_ + 1.0 - lambda;
    double v = 1.0;
    for (int k = 0; k <= hops; ++k) {
      tau[static_cast<size_t>(k)] = v;
      v *= m * m;
    }
    return tau;
  }

  /// Squared-affine stream: per rep, cur <- center·cur + Ã cur (the
  /// planner updates `cur` in place, one SpMM scratch beside it).
  void RecordBasis(opgraph::Graph* graph, opgraph::ValueId x,
                   const opgraph::SpmmOperator* adj,
                   const TermEmitter& emit) const override {
    opgraph::ValueId cur = x;
    emit(0, cur);
    for (int k = 1; k <= hops(); ++k) {
      for (int rep = 0; rep < 2; ++rep) {
        const opgraph::ValueId s = graph->Spmm(adj, cur);
        const opgraph::ValueId v =
            graph->Scale(static_cast<float>(center_), cur);
        cur = graph->Axpy(1.0f, s, v);
      }
      emit(k, cur);
    }
  }

  std::vector<double> DefaultTheta(int, Rng*) const override { return {}; }

  std::vector<double> FixedTheta(int hops) const override {
    std::vector<double> theta(static_cast<size_t>(hops) + 1);
    // Peak basis value is ((|center_| + 1)^2)^k; normalize the series there.
    const double peak = (std::fabs(center_) + 1.0) * (std::fabs(center_) + 1.0);
    double w = std::exp(-alpha_ * peak);
    for (int k = 0; k <= hops; ++k) {
      theta[static_cast<size_t>(k)] = w;
      w *= alpha_ / static_cast<double>(k + 1);
    }
    return theta;
  }

 private:
  double alpha_;
  double center_;
};

/// Fixed channel of GNN-LF/HF: (I ∓ β L̃) Σ_k α(1-α)^k Ã^k. The prefactor is
/// folded into the streamed terms: T_k = (1 ∓ β) Ã^k x ± β Ã^{k+1} x.
class PprPrefactorChannel : public PolynomialBasisFilter {
 public:
  PprPrefactorChannel(int hops, double alpha, double beta, bool low)
      : PolynomialBasisFilter(low ? "lfhf_low" : "lfhf_high",
                              FilterType::kFixed, hops, {}),
        alpha_(alpha),
        beta_(low ? beta : -beta) {}

 protected:
  std::vector<double> ScalarBasis(double lambda, int hops) const override {
    std::vector<double> tau(static_cast<size_t>(hops) + 1);
    const double a = 1.0 - lambda;
    double p = 1.0;
    for (int k = 0; k <= hops; ++k) {
      tau[static_cast<size_t>(k)] = (1.0 - beta_ * lambda) * p;
      p *= a;
    }
    return tau;
  }

  /// Maintains m_k = Ã^k x and emits (1 - β) m_k + β m_{k+1}, since
  /// (I - βL̃) = (1-β) I + β Ã: per hop, the SpMM for m_{k+1}, then the
  /// prefactor's Scale + Axpy forming the term.
  void RecordBasis(opgraph::Graph* graph, opgraph::ValueId x,
                   const opgraph::SpmmOperator* adj,
                   const TermEmitter& emit) const override {
    opgraph::ValueId cur = x;
    for (int k = 0; k <= hops(); ++k) {
      const opgraph::ValueId next = graph->Spmm(adj, cur);
      opgraph::ValueId term =
          graph->Scale(static_cast<float>(1.0 - beta_), cur);
      term = graph->Axpy(static_cast<float>(beta_), next, term);
      emit(k, term);
      cur = next;
    }
  }

  std::vector<double> DefaultTheta(int, Rng*) const override { return {}; }

  std::vector<double> FixedTheta(int hops) const override {
    std::vector<double> theta(static_cast<size_t>(hops) + 1);
    double w = alpha_;
    for (int k = 0; k <= hops; ++k) {
      theta[static_cast<size_t>(k)] = w;
      w *= (1.0 - alpha_);
    }
    return theta;
  }

 private:
  double alpha_;
  double beta_;
};

}  // namespace

MixtureBankFilter::MixtureBankFilter(
    std::string name, int hops,
    std::vector<std::unique_ptr<SpectralFilter>> channels,
    FilterHyperParams hp)
    : name_(std::move(name)),
      hops_(hops),
      hp_(hp),
      channels_(std::move(channels)) {
  SGNN_CHECK(!channels_.empty(), "MixtureBankFilter: no channels");
}

void MixtureBankFilter::ResetParameters(Rng* rng) {
  std::vector<double> flat;
  const double init_gamma = 1.0 / static_cast<double>(channels_.size());
  for (size_t q = 0; q < channels_.size(); ++q) {
    flat.push_back(init_gamma +
                   (rng != nullptr ? rng->Uniform(-0.02, 0.02) : 0.0));
  }
  for (auto& ch : channels_) {
    ch->ResetParameters(rng);
    const auto& vals = ch->params().values();
    flat.insert(flat.end(), vals.begin(), vals.end());
  }
  params_.Reset(std::move(flat));
  ClearCache();
}

void MixtureBankFilter::ScatterParams() const {
  const auto& flat = params_.values();
  size_t off = channels_.size();
  for (auto& ch : channels_) {
    auto& vals = ch->params().values();
    for (auto& v : vals) v = flat[off++];
  }
}

void MixtureBankFilter::GatherGrads() {
  auto& grads = params_.grads();
  size_t off = channels_.size();
  for (auto& ch : channels_) {
    for (const double g : ch->params().grads()) grads[off++] += g;
  }
}

void MixtureBankFilter::Forward(const FilterContext& ctx, const Matrix& x,
                                Matrix* y, bool cache) {
  ScatterParams();
  if (cache) cached_outputs_.clear();
  *y = Matrix(x.rows(), x.cols(), ctx.device);
  const auto& flat = params_.values();
  for (size_t q = 0; q < channels_.size(); ++q) {
    Matrix yq;
    channels_[q]->Forward(ctx, x, &yq, cache);
    ops::Axpy(static_cast<float>(flat[q]), yq, y);
    if (cache) cached_outputs_.push_back(std::move(yq));
  }
}

void MixtureBankFilter::Backward(const FilterContext& ctx,
                                 const Matrix& grad_y, Matrix* grad_x) {
  SGNN_CHECK(cached_outputs_.size() == channels_.size(),
             "MixtureBank::Backward requires Forward(cache=true)");
  auto& grads = params_.grads();
  const auto& flat = params_.values();
  if (grad_x != nullptr) {
    *grad_x = Matrix(grad_y.rows(), grad_y.cols(), ctx.device);
  }
  for (size_t q = 0; q < channels_.size(); ++q) {
    grads[q] += ops::Dot(grad_y, cached_outputs_[q]);
    Matrix gq = grad_y;
    ops::Scale(static_cast<float>(flat[q]), &gq);
    channels_[q]->params().ZeroGrad();
    Matrix gx;
    channels_[q]->Backward(ctx, gq, grad_x != nullptr ? &gx : nullptr);
    if (grad_x != nullptr) ops::Axpy(1.0f, gx, grad_x);
  }
  GatherGrads();
}

void MixtureBankFilter::ClearCache() {
  cached_outputs_.clear();
  cached_combine_outputs_.clear();
  for (auto& ch : channels_) ch->ClearCache();
}

double MixtureBankFilter::Response(double lambda) const {
  ScatterParams();
  const auto& flat = params_.values();
  double r = 0.0;
  for (size_t q = 0; q < channels_.size(); ++q) {
    r += flat[q] * channels_[q]->Response(lambda);
  }
  return r;
}

bool MixtureBankFilter::SupportsMiniBatch() const {
  for (const auto& ch : channels_) {
    if (!ch->SupportsMiniBatch()) return false;
  }
  return true;
}

Status MixtureBankFilter::Precompute(const FilterContext& ctx, const Matrix& x,
                                     std::vector<Matrix>* terms) {
  ScatterParams();
  terms->clear();
  term_offsets_.assign(1, 0);
  for (auto& ch : channels_) {
    std::vector<Matrix> sub;
    SGNN_RETURN_IF_ERROR(ch->Precompute(ctx, x, &sub));
    for (auto& m : sub) terms->push_back(std::move(m));
    term_offsets_.push_back(terms->size());
  }
  return Status::OK();
}

void MixtureBankFilter::CombineTerms(
    const std::vector<const Matrix*>& batch_terms, Matrix* y, bool cache) {
  ScatterParams();
  SGNN_CHECK(term_offsets_.size() == channels_.size() + 1,
             "MixtureBank::CombineTerms requires a prior Precompute");
  SGNN_CHECK(batch_terms.size() == term_offsets_.back(),
             "MixtureBank::CombineTerms term count mismatch");
  const auto& flat = params_.values();
  if (cache) cached_combine_outputs_.clear();
  *y = Matrix(batch_terms[0]->rows(), batch_terms[0]->cols(),
              batch_terms[0]->device());
  for (size_t q = 0; q < channels_.size(); ++q) {
    std::vector<const Matrix*> slice(
        batch_terms.begin() + static_cast<int64_t>(term_offsets_[q]),
        batch_terms.begin() + static_cast<int64_t>(term_offsets_[q + 1]));
    Matrix yq;
    channels_[q]->CombineTerms(slice, &yq, cache);
    ops::Axpy(static_cast<float>(flat[q]), yq, y);
    if (cache) cached_combine_outputs_.push_back(std::move(yq));
  }
}

void MixtureBankFilter::BackwardCombine(
    const std::vector<const Matrix*>& batch_terms, const Matrix& grad_y) {
  SGNN_CHECK(cached_combine_outputs_.size() == channels_.size(),
             "MixtureBank::BackwardCombine requires CombineTerms(cache=true)");
  auto& grads = params_.grads();
  const auto& flat = params_.values();
  for (size_t q = 0; q < channels_.size(); ++q) {
    grads[q] += ops::Dot(grad_y, cached_combine_outputs_[q]);
    std::vector<const Matrix*> slice(
        batch_terms.begin() + static_cast<int64_t>(term_offsets_[q]),
        batch_terms.begin() + static_cast<int64_t>(term_offsets_[q + 1]));
    Matrix gq = grad_y;
    ops::Scale(static_cast<float>(flat[q]), &gq);
    channels_[q]->params().ZeroGrad();
    channels_[q]->BackwardCombine(slice, gq);
  }
  GatherGrads();
}

std::unique_ptr<MixtureBankFilter> MakeG2cnFilter(int hops,
                                                  FilterHyperParams hp) {
  std::vector<std::unique_ptr<SpectralFilter>> channels;
  channels.push_back(std::make_unique<GaussianSquaredChannel>(
      hops, hp.alpha, hp.beta, /*low=*/true));
  channels.push_back(std::make_unique<GaussianSquaredChannel>(
      hops, hp.alpha2, hp.beta2, /*low=*/false));
  return std::make_unique<MixtureBankFilter>("g2cn", hops, std::move(channels),
                                             hp);
}

std::unique_ptr<MixtureBankFilter> MakeGnnLfHfFilter(int hops,
                                                     FilterHyperParams hp) {
  std::vector<std::unique_ptr<SpectralFilter>> channels;
  channels.push_back(std::make_unique<PprPrefactorChannel>(
      hops, hp.alpha, hp.beta, /*low=*/true));
  channels.push_back(std::make_unique<PprPrefactorChannel>(
      hops, hp.alpha2, hp.beta2, /*low=*/false));
  return std::make_unique<MixtureBankFilter>("gnn_lf_hf", hops,
                                             std::move(channels), hp);
}

std::unique_ptr<MixtureBankFilter> MakeFigureFilter(int hops,
                                                    FilterHyperParams hp) {
  std::vector<std::unique_ptr<SpectralFilter>> channels;
  channels.push_back(std::make_unique<IdentityFilter>(hops, hp));
  channels.push_back(std::make_unique<VarMonomialFilter>(hops, hp));
  channels.push_back(std::make_unique<ChebyshevFilter>(hops, hp));
  channels.push_back(std::make_unique<BernsteinFilter>(hops, hp));
  return std::make_unique<MixtureBankFilter>("figure", hops,
                                             std::move(channels), hp);
}

}  // namespace sgnn::filters

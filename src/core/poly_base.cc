#include "core/poly_base.h"

#include "opgraph/executor.h"
#include "tensor/ops.h"

namespace sgnn::filters {

const char* FilterTypeName(FilterType type) {
  switch (type) {
    case FilterType::kFixed: return "fixed";
    case FilterType::kVariable: return "variable";
    case FilterType::kBank: return "bank";
  }
  return "unknown";
}

void FilterContext::Propagate(const Matrix& x, Matrix* y) const {
  if (op != nullptr) {
    op->Apply(x, y);
    return;
  }
  prop->SpMM(x, y);
}

namespace propagate {

void Adj(const FilterContext& ctx, const Matrix& x, Matrix* y) {
  ctx.Propagate(x, y);
}

void Lap(const FilterContext& ctx, const Matrix& x, Matrix* y) {
  ctx.Propagate(x, y);
  ops::Scale(-1.0f, y);
  ops::Axpy(1.0f, x, y);
}

}  // namespace propagate

PolynomialBasisFilter::PolynomialBasisFilter(std::string name, FilterType type,
                                             int hops, FilterHyperParams hp)
    : hp_(hp), name_(std::move(name)), type_(type), hops_(hops) {
  SGNN_CHECK(hops >= 0, "filter hop count must be non-negative");
}

void PolynomialBasisFilter::ResetParameters(Rng* rng) {
  params_.Reset(DefaultTheta(hops_, rng));
  ClearCache();
}

std::vector<double> PolynomialBasisFilter::FixedTheta(int hops) const {
  (void)hops;
  SGNN_CHECK(false, "FixedTheta must be overridden by fixed filters");
  return {};
}

std::vector<double> PolynomialBasisFilter::EffectiveTheta(int hops) const {
  if (type_ == FilterType::kFixed) return FixedTheta(hops);
  return params_.values();
}

void PolynomialBasisFilter::AccumulateRawGrad(
    const std::vector<double>& eff_grad) {
  auto& grads = params_.grads();
  SGNN_CHECK(eff_grad.size() <= grads.size(),
             "effective-theta gradient larger than parameter vector");
  for (size_t i = 0; i < eff_grad.size(); ++i) grads[i] += eff_grad[i];
}

std::vector<double> PolynomialBasisFilter::CurrentTheta() const {
  std::vector<double> theta = EffectiveTheta(hops_);
  SGNN_CHECK(static_cast<int>(theta.size()) == hops_ + 1,
             "effective theta must have K+1 entries");
  return theta;
}

PolynomialBasisFilter::Recurrence PolynomialBasisFilter::RecurrenceAt(
    int k) const {
  (void)k;
  // Default basis: T_k = Ã T_{k-1}, i.e. T_k = (I - L̃)^k.
  return Recurrence{1.0, 0.0, 0.0};
}

void PolynomialBasisFilter::RecordBasis(opgraph::Graph* graph,
                                        opgraph::ValueId x,
                                        const opgraph::SpmmOperator* adj,
                                        const TermEmitter& emit) const {
  // Per hop: Spmm → Scale(ca) → Axpy(ci, T_{k-1}) → Axpy(cp, T_{k-2}), the
  // zero coefficients skipped. The fusion pass collapses each chain into one
  // kFusedSpmmAffine node that replays the same kernels in the same order,
  // so the recurrence keeps three rotating terms live.
  opgraph::ValueId prev = opgraph::kNoValue;
  opgraph::ValueId cur = x;
  emit(0, cur);
  for (int k = 1; k <= hops(); ++k) {
    const Recurrence r = RecurrenceAt(k);
    opgraph::ValueId v =
        graph->Scale(static_cast<float>(r.ca), graph->Spmm(adj, cur));
    if (r.ci != 0.0) v = graph->Axpy(static_cast<float>(r.ci), cur, v);
    if (r.cp != 0.0 && prev != opgraph::kNoValue) {
      v = graph->Axpy(static_cast<float>(r.cp), prev, v);
    }
    emit(k, v);
    prev = cur;
    cur = v;
  }
}

Status PolynomialBasisFilter::RunBasis(const FilterContext& ctx,
                                       const Matrix& x, Matrix* y,
                                       std::vector<Matrix>* terms) const {
  const CsrSpmmOperator csr(ctx.prop);
  const opgraph::SpmmOperator* adj = ctx.op != nullptr ? ctx.op : &csr;
  const std::vector<double> theta =
      y != nullptr ? CurrentTheta() : std::vector<double>{};
  opgraph::Graph graph(ctx.device);
  const opgraph::ValueId input = graph.Input(&x);
  // Zero + Axpy chain, skipping θ_k == 0: the accumulator starts zero-filled
  // and only nonzero weights touch it, which keeps signed zeros exact.
  opgraph::ValueId acc =
      y != nullptr ? graph.Zero(x.rows(), x.cols()) : opgraph::kNoValue;
  std::vector<opgraph::ValueId> ids;
  RecordBasis(&graph, input, adj, [&](int k, opgraph::ValueId term) {
    if (terms != nullptr) ids.push_back(term);
    if (y == nullptr) return;
    const double w = theta[static_cast<size_t>(k)];
    if (w != 0.0) acc = graph.Axpy(static_cast<float>(w), term, acc);
  });
  if (y != nullptr) graph.MarkOutput(acc, y);
  if (terms != nullptr) {
    // Size once before pinning: MarkOutput stores raw slot pointers, so
    // `terms` must not reallocate until execution is done.
    terms->clear();
    terms->resize(ids.size());
    for (size_t k = 0; k < ids.size(); ++k) {
      graph.MarkOutput(ids[k], &(*terms)[k]);
    }
  }
  return opgraph::RunPipeline(&graph);
}

std::vector<double> PolynomialBasisFilter::ScalarBasis(double lambda,
                                                       int hops) const {
  const double a = 1.0 - lambda;  // scalar analogue of Ã
  std::vector<double> tau(static_cast<size_t>(hops) + 1);
  tau[0] = 1.0;
  double prev = 0.0, cur = 1.0;
  for (int k = 1; k <= hops; ++k) {
    const Recurrence r = RecurrenceAt(k);
    const double next = (r.ca * a + r.ci) * cur + r.cp * prev;
    tau[static_cast<size_t>(k)] = next;
    prev = cur;
    cur = next;
  }
  return tau;
}

void PolynomialBasisFilter::Forward(const FilterContext& ctx, const Matrix& x,
                                    Matrix* y, bool cache) {
  const bool keep_terms = cache && type_ != FilterType::kFixed;
  // An OutOfMemory here only repeats the DeviceTracker's latched OOM flag,
  // which the trainers' run guards read after the epoch; the outputs are
  // fully computed either way.
  (void)RunBasis(ctx, x, y, keep_terms ? &cached_terms_ : nullptr);
  has_cache_ = keep_terms;
}

void PolynomialBasisFilter::Backward(const FilterContext& ctx,
                                     const Matrix& grad_y, Matrix* grad_x) {
  if (type_ != FilterType::kFixed) {
    SGNN_CHECK(has_cache_, "Backward requires Forward(cache=true)");
    std::vector<double> eff_grad(static_cast<size_t>(hops_) + 1, 0.0);
    for (size_t k = 0; k < cached_terms_.size(); ++k) {
      eff_grad[k] = ops::Dot(grad_y, cached_terms_[k]);
    }
    AccumulateRawGrad(eff_grad);
  }
  if (grad_x != nullptr) {
    // Bases are polynomials of the symmetric L̃ => g(L̃)ᵀ = g(L̃): the input
    // gradient is the forward applied to the upstream gradient. Discarded
    // for the same reason as in Forward.
    (void)RunBasis(ctx, grad_y, grad_x, nullptr);
  }
}

void PolynomialBasisFilter::ClearCache() {
  cached_terms_.clear();
  has_cache_ = false;
}

double PolynomialBasisFilter::Response(double lambda) const {
  const std::vector<double> theta = EffectiveTheta(hops_);
  const std::vector<double> tau = ScalarBasis(lambda, hops_);
  double acc = 0.0;
  for (size_t k = 0; k < theta.size() && k < tau.size(); ++k) {
    acc += theta[k] * tau[k];
  }
  return acc;
}

Status PolynomialBasisFilter::Precompute(const FilterContext& ctx,
                                         const Matrix& x,
                                         std::vector<Matrix>* terms) {
  if (type_ == FilterType::kFixed) {
    // Fixed filters fold θ during precompute: a single combined matrix.
    terms->clear();
    terms->resize(1);
    return RunBasis(ctx, x, &(*terms)[0], nullptr);
  }
  return RunBasis(ctx, x, nullptr, terms);
}

void PolynomialBasisFilter::CombineTerms(const std::vector<const Matrix*>& batch_terms,
                                         Matrix* y, bool /*cache*/) {
  SGNN_CHECK(!batch_terms.empty(), "CombineTerms: no terms");
  if (type_ == FilterType::kFixed) {
    *y = *batch_terms[0];
    return;
  }
  const std::vector<double> theta = CurrentTheta();
  SGNN_CHECK(batch_terms.size() == theta.size(),
             "CombineTerms: term/theta count mismatch");
  *y = Matrix(batch_terms[0]->rows(), batch_terms[0]->cols(),
              batch_terms[0]->device());
  for (size_t k = 0; k < batch_terms.size(); ++k) {
    if (theta[k] != 0.0)
      ops::Axpy(static_cast<float>(theta[k]), *batch_terms[k], y);
  }
}

void PolynomialBasisFilter::BackwardCombine(
    const std::vector<const Matrix*>& batch_terms, const Matrix& grad_y) {
  if (type_ == FilterType::kFixed) return;
  std::vector<double> eff_grad(batch_terms.size(), 0.0);
  for (size_t k = 0; k < batch_terms.size(); ++k) {
    eff_grad[k] = ops::Dot(grad_y, *batch_terms[k]);
  }
  AccumulateRawGrad(eff_grad);
}

}  // namespace sgnn::filters

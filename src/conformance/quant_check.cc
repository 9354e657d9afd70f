#include "conformance/quant_check.h"

#include <sstream>
#include <utility>

#include "core/registry.h"

namespace sgnn::conformance {

double QuantTolerance(const std::string& filter_name, quant::Precision p) {
  // fp16 rounds each stored term value at ~2^-11 relative; the combine sum
  // stays well inside 4e-3 extra for every basis. int8's per-channel step is
  // scale = clip/127, so each term carries up to clip/254 absolute error and
  // the K-term combine adds them — 3e-2 of slack bounds every Table 1 MB
  // filter at the conformance graph size (measured table in
  // docs/QUANTIZATION.md).
  const double base = OracleTolerance(filter_name);
  switch (p) {
    case quant::Precision::kFp16:
      return base + 4e-3;
    case quant::Precision::kInt8:
      return base + 3e-2;
    case quant::Precision::kFp32:
      return base;
  }
  return base;
}

Result<QuantReport> CheckQuantConformance(const std::string& filter_name,
                                          const sparse::CsrMatrix& norm_adj,
                                          const eval::EigenDecomposition& eig,
                                          const Matrix& x,
                                          quant::Precision precision,
                                          const quant::CalibConfig& calib,
                                          const OracleOptions& options) {
  if (precision == quant::Precision::kFp32) {
    return Status::InvalidArgument(
        "quant conformance: kFp32 has nothing to check (use the fp oracle)");
  }
  if (x.rows() != norm_adj.n()) {
    return Status::InvalidArgument("quant conformance: x rows != graph nodes");
  }
  if (static_cast<int64_t>(eig.values.size()) != x.rows()) {
    return Status::InvalidArgument(
        "quant conformance: eigendecomposition size mismatch");
  }
  SGNN_ASSIGN_OR_RETURN(
      auto filter,
      filters::CreateFilter(filter_name, options.hops, options.hp, x.cols()));

  QuantReport report;
  report.filter = filter_name;
  report.precision = precision;
  report.tolerance = QuantTolerance(filter_name, precision);

  if (!filter->SupportsMiniBatch()) {
    report.skipped = true;
    report.pass = true;
    report.detail = "full-batch only: no MB artifact to quantize";
    return report;
  }

  filters::FilterContext ctx;
  ctx.prop = &norm_adj;
  ctx.device = Device::kHost;

  std::vector<Matrix> terms;
  SGNN_RETURN_IF_ERROR(filter->Precompute(ctx, x, &terms));

  // Quantize + dequantize each term and combine in fp: the term codec's
  // error alone. The fused serving path computes the same per-channel sum
  // with the scales folded into the probed combine weights.
  std::vector<Matrix> dq_terms;
  dq_terms.reserve(terms.size());
  for (const Matrix& t : terms) {
    SGNN_ASSIGN_OR_RETURN(auto q, quant::Quantize(t, precision, calib));
    Matrix back(t.rows(), t.cols(), Device::kHost);
    quant::Dequantize(q, &back);
    dq_terms.push_back(std::move(back));
  }

  std::vector<const Matrix*> fp_ptrs;
  std::vector<const Matrix*> dq_ptrs;
  fp_ptrs.reserve(terms.size());
  dq_ptrs.reserve(terms.size());
  for (const auto& t : terms) fp_ptrs.push_back(&t);
  for (const auto& t : dq_terms) dq_ptrs.push_back(&t);

  Matrix y_fp;
  filter->CombineTerms(fp_ptrs, &y_fp, /*cache=*/false);
  Matrix y_q;
  filter->CombineTerms(dq_ptrs, &y_q, /*cache=*/false);

  // The dense reference must come after a combine: data-dependent bases
  // (optbasis) size their θ lazily on first use, and the double-precision
  // reference reads those live parameters.
  bool degenerate = false;
  const Matrix ref = DenseReference(filter.get(), filter_name, norm_adj, eig,
                                    x, options.hops, &degenerate);
  if (degenerate) {
    report.skipped = true;
    report.pass = true;
    report.detail = "lanczos breakdown: dense reference undefined";
    return report;
  }

  report.fp_rel_error = RelativeFrobenius(y_fp, ref);
  report.rel_error = RelativeFrobenius(y_q, ref);
  report.pass = report.rel_error <= report.tolerance;
  if (!report.pass) {
    report.detail = "quantized combine diverges from dense spectral operator";
  }
  return report;
}

Result<std::vector<QuantReport>> CheckAllQuant(
    const sparse::CsrMatrix& norm_adj, const eval::EigenDecomposition& eig,
    const Matrix& x, quant::Precision precision,
    const quant::CalibConfig& calib, const OracleOptions& options) {
  std::vector<QuantReport> reports;
  for (const auto& name : filters::AllFilterNames()) {
    SGNN_ASSIGN_OR_RETURN(auto report,
                          CheckQuantConformance(name, norm_adj, eig, x,
                                                precision, calib, options));
    reports.push_back(std::move(report));
  }
  return reports;
}

bool AllQuantPass(const std::vector<QuantReport>& reports) {
  for (const auto& r : reports) {
    if (!r.pass) return false;
  }
  return true;
}

std::string FormatQuantReports(const std::vector<QuantReport>& reports) {
  std::ostringstream os;
  for (const auto& r : reports) {
    os << (r.pass ? "  ok  " : "FAIL  ") << r.filter << "  "
       << quant::PrecisionName(r.precision) << "  rel=" << r.rel_error
       << " fp=" << r.fp_rel_error << " tol=" << r.tolerance;
    if (!r.detail.empty()) os << "  (" << r.detail << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace sgnn::conformance

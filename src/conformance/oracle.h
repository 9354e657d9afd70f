// Spectral conformance oracle — dense eigendecomposition ground truth.
//
// For a small graph the normalized Laplacian L̃ = I - Ã can be
// eigendecomposed exactly (eval::JacobiEigen), turning every Table 1 filter
// into a closed-form operator U g(Λ) Uᵀ. The oracle runs each filter's
// *implemented* sparse propagation path (core/ + sparse/) against that dense
// reference in double precision and reports a relative Frobenius error, so
// a basis recurrence, coefficient schedule, or SpMM kernel that drifts from
// the paper's math fails loudly instead of silently skewing benchmark rows.
//
// Two filters need more than the scalar Response(λ):
//   * adagnn applies a per-channel product Π_k (1 - γ_{k,f} λ); its scalar
//     Response() is feature-averaged, so the oracle evaluates the exact
//     per-channel form from the live γ parameters.
//   * optbasis realizes a data-dependent Lanczos basis; the oracle mirrors
//     the three-term recurrence in double precision. Near a Lanczos
//     breakdown (Krylov subspace exhausted, β ≈ 0) the basis direction is
//     numerically undefined, so the spectral comparison is skipped and only
//     the FB/MB consistency check applies (report.degenerate_basis).
//
// Valid only at ρ = 0.5: the generalized normalization is non-symmetric for
// other ρ and U g(Λ) Uᵀ is not the propagation operator.

#ifndef SGNN_CONFORMANCE_ORACLE_H_
#define SGNN_CONFORMANCE_ORACLE_H_

#include <string>
#include <vector>

#include "core/registry.h"
#include "eval/eigen.h"
#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::conformance {

/// Per-check knobs.
struct OracleOptions {
  int hops = 6;
  filters::FilterHyperParams hp;
};

/// Outcome of one filter-vs-oracle comparison.
struct OracleReport {
  std::string filter;
  double rel_error = 0.0;     ///< ‖y - U g(Λ) Uᵀ x‖_F / max(1, ‖ref‖_F)
  double mb_rel_error = 0.0;  ///< MB combine vs FB forward (0 when FB-only)
  double tolerance = 0.0;
  bool degenerate_basis = false;  ///< optbasis Lanczos breakdown detected
  bool pass = false;
  std::string detail;  ///< human-readable failure / skip reason
};

/// Documented per-filter tolerance (docs/CONFORMANCE.md). Default 2e-3;
/// looser for bases with higher float32 error accumulation.
double OracleTolerance(const std::string& filter_name);

/// ‖a - b‖_F / max(1, ‖b‖_F), accumulated in double. The unit floor keeps
/// near-zero references (e.g. high-pass filters on smooth signals) from
/// turning float noise into huge relative errors. Shared by the oracle and
/// the quantization conformance check (quant_check.h).
double RelativeFrobenius(const Matrix& a, const Matrix& b);

/// The dense double-precision ground truth U g(Λ) Uᵀ x for `filter` —
/// adagnn gets its exact per-channel product form and optbasis its
/// double-precision Lanczos mirror (both documented in the header comment).
/// Sets *degenerate on an optbasis Lanczos breakdown, in which case the
/// returned reference is meaningless and must not be compared against.
Matrix DenseReference(filters::SpectralFilter* filter,
                      const std::string& filter_name,
                      const sparse::CsrMatrix& norm_adj,
                      const eval::EigenDecomposition& eig, const Matrix& x,
                      int hops, bool* degenerate);

/// Runs `filter_name`'s sparse propagation on (norm_adj, x) and compares it
/// against the dense spectral operator built from `eig` (the
/// eigendecomposition of DenseLaplacian(norm_adj)). Returns InvalidArgument
/// for unknown filters or mismatched shapes.
[[nodiscard]] Result<OracleReport> CheckSpectralConformance(
    const std::string& filter_name, const sparse::CsrMatrix& norm_adj,
    const eval::EigenDecomposition& eig, const Matrix& x,
    const OracleOptions& options = {});

/// CheckSpectralConformance over all 27 taxonomy filters.
[[nodiscard]] Result<std::vector<OracleReport>> CheckAllFilters(
    const sparse::CsrMatrix& norm_adj, const eval::EigenDecomposition& eig,
    const Matrix& x, const OracleOptions& options = {});

/// True when every report passed.
bool AllPass(const std::vector<OracleReport>& reports);

/// One line per report, failures marked.
std::string FormatReports(const std::vector<OracleReport>& reports);

}  // namespace sgnn::conformance

#endif  // SGNN_CONFORMANCE_ORACLE_H_

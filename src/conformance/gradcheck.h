// Finite-difference gradient oracle for every manual backward pass.
//
// The repo's backward passes (filters' θ/γ gradients, Linear/Mlp weight and
// bias gradients, loss dL/dlogits, filter input gradients) are hand-derived.
// This checker perturbs each parameter block coordinate-wise and compares a
// Richardson-extrapolated central difference against the analytic gradient,
// reporting the max relative error per block.
//
// The forward path is float32, so a naive central difference at tiny h is
// drowned by rounding noise. Three measures keep the check sharp enough for
// the 1e-4 acceptance bar:
//   * a large scaled step h = step · max(1, |θ|) — truncation error is then
//     removed by Richardson extrapolation over h and h/2 (error O(h⁴));
//   * the effective step is recomputed from the values actually stored
//     after rounding (θ⁺ - θ⁻ as represented, not 2h as requested);
//   * the scalar loss is accumulated in double (ops::Dot / the double loss
//     returns), so only the float32 representation of intermediate tensors
//     contributes noise.
//
// Known straight-through blocks are restricted rather than skipped wholesale:
// favard checks only its θ block (the learned basis params a/b deliberately
// receive zero gradients), and optbasis skips the input-gradient block (its
// basis is treated as constant w.r.t. x by design).

#ifndef SGNN_CONFORMANCE_GRADCHECK_H_
#define SGNN_CONFORMANCE_GRADCHECK_H_

#include <string>
#include <vector>

#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::conformance {

/// Knobs for one gradient-check run.
struct GradCheckOptions {
  int hops = 5;
  double tolerance = 1e-4;
  /// Coordinates probed per block; larger blocks are subsampled
  /// deterministically from `seed`.
  size_t max_coords = 48;
  uint64_t seed = 0x5EED5EED;
};

/// Outcome for one parameter block ("ppr/theta", "mlp/layer0/weight", ...).
struct GradBlockReport {
  std::string block;
  size_t checked = 0;  ///< coordinates probed
  double max_rel_error = 0.0;
  double tolerance = 0.0;
  bool pass = false;
  std::string detail;  ///< restriction note or failure reason
};

/// Checks one filter's θ/γ block and its input-gradient block against FD on
/// the loss L = <W, Forward(x)> with a fixed random W.
[[nodiscard]] Result<std::vector<GradBlockReport>> CheckFilterGradients(
    const std::string& filter_name, const sparse::CsrMatrix& norm_adj,
    const Matrix& x, const GradCheckOptions& options = {});

/// Checks every Linear weight/bias block and the input gradient of a small
/// 2-layer Mlp (dropout 0 — the FD loss must be deterministic) under
/// softmax cross-entropy.
std::vector<GradBlockReport> CheckMlpGradients(
    const GradCheckOptions& options = {});

/// Checks dL/dlogits of SoftmaxCrossEntropy (full and masked rows),
/// BceWithLogits, and MseLoss against FD on the loss value itself.
std::vector<GradBlockReport> CheckLossGradients(
    const GradCheckOptions& options = {});

/// All learnable blocks: every taxonomy filter + Mlp + losses.
[[nodiscard]] Result<std::vector<GradBlockReport>> CheckAllGradients(
    const sparse::CsrMatrix& norm_adj, const Matrix& x,
    const GradCheckOptions& options = {});

/// True when every block passed.
bool AllPass(const std::vector<GradBlockReport>& reports);

/// One line per block, failures marked.
std::string FormatReports(const std::vector<GradBlockReport>& reports);

}  // namespace sgnn::conformance

#endif  // SGNN_CONFORMANCE_GRADCHECK_H_

// Push-based approximate graph propagation (AGP/APPNP-style forward push).
//
// The paper's pipeline "incorporates efficient data processing techniques"
// from approximate-propagation work (AGP, SCARA, GBP): instead of K dense
// SpMM passes, residual mass is pushed along edges only where it exceeds a
// degree-scaled threshold, trading bounded error for large speedups on
// sparse signals. Used as an alternative mini-batch precompute path; the
// ablation bench quantifies the speed/accuracy trade-off.
//
// Where this sits in the filter taxonomy (see core/filter.h): push is a
// realization strategy, not a filter of its own. It computes the same PPR
// series as the fixed `ppr` filter (fixed_filters.h) and can substitute for
// the hop-term precompute of any summed-form filter (poly_base.h,
// bank_filters.h); the factored product-form filters (product_filters.h)
// cannot use it because their first-order factors must be applied
// sequentially at full precision.
//
// Execution model: propagation proceeds in synchronous frontier rounds.
// Within a round the frontier is split into per-source-range lanes whose
// partition depends only on the frontier size; lanes accumulate into
// thread-local delta buffers (tensor/parallel.h) and are merged in lane
// order, so results are bit-identical at any thread count
// (docs/PERFORMANCE.md). The matrix form parallelizes across feature
// columns instead, with the per-column pushes running their lanes inline.

#ifndef SGNN_SPARSE_PUSH_H_
#define SGNN_SPARSE_PUSH_H_

#include <cstdint>
#include <vector>

#include "sparse/csr.h"
#include "tensor/matrix.h"

namespace sgnn::sparse {

/// Parameters for approximate PPR propagation.
struct PushConfig {
  /// Teleport probability α of the PPR series Σ α(1-α)^k Ã^k.
  double alpha = 0.2;
  /// Residual threshold: node u pushes while |r[u]| > epsilon * (deg(u)+1).
  /// Smaller = more accurate and slower; 0 reproduces the exact limit.
  double epsilon = 1e-4;
};

/// Statistics of one push run.
struct PushStats {
  int64_t pushes = 0;         ///< node-push operations performed
  int64_t edge_touches = 0;   ///< edge traversals (the real work)
  double residual_l1 = 0.0;   ///< remaining |r|_1 mass (error bound)
};

/// Approximates p = Σ_k α(1-α)^k Ã^k x for one signal vector using
/// forward push on the weighted normalized adjacency `norm` (rows of Ã).
/// Guarantees per-node residual below epsilon * (deg+1) on return.
PushStats ApproxPprPush(const CsrMatrix& norm, const PushConfig& config,
                        const std::vector<float>& x, std::vector<float>* out);

/// Column-wise push over an n x F matrix; returns accumulated stats.
PushStats ApproxPprPushMatrix(const CsrMatrix& norm, const PushConfig& config,
                              const Matrix& x, Matrix* out);

}  // namespace sgnn::sparse

#endif  // SGNN_SPARSE_PUSH_H_

// Graph adjacency construction and generalized normalization.
//
// Implements the paper's graph preprocessing protocol: symmetrize, add self
// loops (Ā = A + I), and normalize with the generalized coefficient ρ:
//   Ã = D̄^{ρ-1} Ā D̄^{-ρ},  ρ ∈ [0, 1]   (Section 2.1 / RQ9)
// ρ = 1/2 is the symmetric GCN normalization; ρ = 1 is the random-walk one.
// Filters then operate on Ã and on L̃ = I - Ã implicitly.

#ifndef SGNN_SPARSE_ADJACENCY_H_
#define SGNN_SPARSE_ADJACENCY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sparse/csr.h"
#include "tensor/status.h"

namespace sgnn::sparse {

/// An undirected edge list (pairs may appear in either or both directions).
using EdgeList = std::vector<std::pair<int32_t, int32_t>>;

/// Builds the unweighted adjacency CSR from an edge list.
/// Symmetrizes (adds both directions), optionally adds self loops, and
/// removes duplicate edges. Node ids must lie in [0, n).
[[nodiscard]] Result<CsrMatrix> BuildAdjacency(int64_t n, const EdgeList& edges,
                                 bool add_self_loops);

/// Returns Ã = D̄^{ρ-1} Ā D̄^{-ρ} for a self-looped adjacency `adj`.
/// Rows/cols with zero degree are left zero.
CsrMatrix NormalizeAdjacency(const CsrMatrix& adj, double rho);

}  // namespace sgnn::sparse

#endif  // SGNN_SPARSE_ADJACENCY_H_

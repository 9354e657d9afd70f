// SpMM-chain fusion pass.
//
// The polynomial recurrence T_k = (ca·Ã + ci·I)T_{k-1} + cp·T_{k-2} records,
// per hop, the chain
//
//   s = Spmm(A, cur); u = Scale(ca, s); [v = Axpy(ci, cur, u);]
//   [w = Axpy(cp, prev, v);]
//
// where s/u/v are single-use intermediates. FuseSpmmChains collapses each
// such chain into one kFusedSpmmAffine node whose executor replay performs
// the identical kernel sequence (SpMM into the destination buffer, Scale in
// place, then the Axpys) — eliminating a separate SpMM scratch buffer and
// its copy, and shrinking the K-hop working set to the recurrence's three
// rotating terms.
//
// Legality (docs/OPGRAPH.md): a producer is absorbed only when its value has
// exactly one consumer and is not a marked output; the Axpy must accumulate
// into the chain (in1 == chain value); at most two Axpys are absorbed (ci,
// then cp — the recurrence order). Anything else is left untouched, so
// fusion never changes results, only buffer traffic.

#ifndef SGNN_OPGRAPH_FUSION_H_
#define SGNN_OPGRAPH_FUSION_H_

#include "opgraph/graph.h"

namespace sgnn::opgraph {

/// Rewrites `graph` in place, collapsing SpMM→Scale→Axpy* chains into
/// kFusedSpmmAffine nodes. Returns the number of chains fused.
int FuseSpmmChains(Graph* graph);

}  // namespace sgnn::opgraph

#endif  // SGNN_OPGRAPH_FUSION_H_

// Deterministic edge-cut graph partitioner for sharded propagation.
//
// The paper's central scalability finding is that propagation-time memory
// bounds spectral-GNN scale; everything below this layer assumes one CSR
// that fits one device. The partitioner splits the node set into K shards
// of roughly n/K nodes each (greedy BFS-grown, ClusterGCN-flavoured METIS
// substitute, seeded and bit-reproducible) so propagation can run
// shard-by-shard under per-shard accelerator budgets (shard/spmm.h).
//
// The GP *training scheme* (models/partition.h) takes its parts from this
// same partitioner. GP severs the cut edges, which changes the model;
// sharding keeps every edge: cross-shard edges become halo references
// resolved by the halo exchange in shard/plan.h, so sharded propagation is
// bit-identical to unsharded (docs/SHARDING.md).

#ifndef SGNN_SHARD_PARTITION_H_
#define SGNN_SHARD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "sparse/csr.h"

namespace sgnn::shard {

/// Partitioner knobs. Same options + same graph => same partition, on any
/// machine and at any thread count.
struct PartitionOptions {
  /// Number of shards K. Values above n leave trailing shards empty.
  int num_shards = 1;
  /// Seed for BFS root selection; changes shard shapes, never correctness.
  uint64_t seed = 1;
};

/// Node -> shard assignment. Owned lists are ascending in global id, so the
/// shard-local row order (shard/plan.h) is a deterministic function of the
/// assignment alone.
struct Partition {
  int num_shards = 1;
  /// Shard id per node, size n.
  std::vector<int32_t> shard_of;
  /// Global ids owned by each shard, ascending. Every node appears in
  /// exactly one list.
  std::vector<std::vector<int32_t>> owned;
};

/// Partition quality counters (journaled by the Fig. 3/5 benches; the halo
/// fields are filled by BuildShardPlan, which is where halo sets exist).
struct EdgeCutStats {
  int64_t total_edges = 0;  ///< nnz of the partitioned matrix
  int64_t cut_edges = 0;    ///< entries whose row and column differ in shard
  int64_t total_owned = 0;  ///< sum of owned counts (= n)
  int64_t total_halo = 0;   ///< sum of per-shard halo vertex counts

  /// Fraction of entries crossing a shard boundary.
  double cut_fraction() const {
    return total_edges > 0
               ? static_cast<double>(cut_edges) / static_cast<double>(total_edges)
               : 0.0;
  }
  /// Replicated (halo) vertices per owned vertex — the memory overhead of
  /// keeping every edge instead of severing the cut.
  double halo_fraction() const {
    return total_owned > 0
               ? static_cast<double>(total_halo) / static_cast<double>(total_owned)
               : 0.0;
  }
};

/// Greedy BFS-grown edge-cut partition of the (square) graph matrix: each
/// shard grows from a seeded root over unassigned neighbors in CSR row
/// order until it holds ceil(n / K) nodes, restarting from the seeded node
/// permutation when a component is exhausted (disconnected graphs and
/// isolated nodes land in whichever shard is growing). Deterministic for a
/// fixed (graph, options) pair.
Partition GreedyBfsPartition(const sparse::CsrMatrix& graph,
                             const PartitionOptions& options);

/// Counts total and cut entries of `graph` under `partition`. Halo fields
/// are left zero (see BuildShardPlan).
EdgeCutStats ComputeEdgeCut(const sparse::CsrMatrix& graph,
                            const Partition& partition);

}  // namespace sgnn::shard

#endif  // SGNN_SHARD_PARTITION_H_

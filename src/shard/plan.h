// Shard-local CSR slices and halo maps — the executable form of a partition.
//
// Each shard owns a contiguous local id space: owned vertices first (in
// ascending global id), then halo vertices (non-owned columns referenced by
// the owned rows, in first-reference order). The slice matrix is a *square*
// CSR of dimension owned+halo whose owned rows carry the exact entries of
// the corresponding global rows — same values, same within-row order, with
// columns remapped to local ids — and whose halo rows are empty padding.
// That shape lets the unmodified sparse::CsrMatrix::SpMM kernel run each
// shard, which is what makes sharded output bit-identical to unsharded:
// identical per-row accumulation order over identical floats
// (docs/SHARDING.md, determinism contract).
//
// The halo exchange protocol is the gather list: before every SpMM hop a
// shard gathers rows [owned ++ halo] of the current global representation
// into its local buffer (shard/spmm.h); owned rows of the local product are
// scattered back in shard order.

#ifndef SGNN_SHARD_PLAN_H_
#define SGNN_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "shard/partition.h"
#include "sparse/csr.h"

namespace sgnn::shard {

/// One shard's slice of the propagation matrix plus its id maps.
struct ShardSlice {
  /// Global ids owned by this shard, ascending; local ids [0, owned.size()).
  std::vector<int32_t> owned;
  /// Global ids of halo (boundary) vertices — columns referenced by owned
  /// rows but owned elsewhere — in first-reference order; local ids
  /// [owned.size(), owned.size() + halo.size()).
  std::vector<int32_t> halo;
  /// Rows of the global representation this shard reads each hop: owned
  /// followed by halo (the concatenated local -> global map).
  std::vector<int32_t> gather;
  /// Square (owned+halo) x (owned+halo) slice; halo rows empty.
  sparse::CsrMatrix local;

  int64_t owned_count() const { return static_cast<int64_t>(owned.size()); }
  int64_t halo_count() const { return static_cast<int64_t>(halo.size()); }
  int64_t local_n() const { return local.n(); }
};

/// A complete sharded view of one propagation matrix.
struct ShardPlan {
  int num_shards = 1;
  int64_t n = 0;           ///< global dimension
  Partition partition;
  std::vector<ShardSlice> slices;
  EdgeCutStats stats;      ///< cut and halo counters, fully populated
};

/// Partitions `prop` with GreedyBfsPartition and builds every slice.
/// Deterministic for a fixed (prop, options) pair. Slices live on the host;
/// the executor accounts their transfer when a shard computes on the
/// accelerator.
ShardPlan BuildShardPlan(const sparse::CsrMatrix& prop,
                         const PartitionOptions& options);

}  // namespace sgnn::shard

#endif  // SGNN_SHARD_PLAN_H_

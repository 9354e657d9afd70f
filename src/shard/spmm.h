// Sharded propagation executor with per-shard accelerator budgets.
//
// ShardedSpmmOperator implements the abstract opgraph::SpmmOperator, so the
// op-graph's SpMM nodes and FilterContext::Propagate both run sharded
// without any filter change. One Apply is one halo-exchange round:
// for each shard in ascending order, gather the rows the shard reads
// (owned ++ halo) from the current global representation, run the stock CSR
// SpMM kernel on the square slice, and scatter the owned rows of the local
// product back into the global output. Shards are processed and merged in
// shard order — the ordered-lane-merge discipline from sparse/push.cc — and
// each local row repeats the exact accumulation order of its global row, so
// output is bit-identical to unsharded at any shard count and
// SGNN_NUM_THREADS (docs/SHARDING.md).
//
// Memory model: every shard computes on the accelerator under a sub-budget
// of DeviceTracker accel capacity / K (0 capacity = unlimited). A shard
// whose working set — slice storage + gathered input + local output —
// exceeds it is *spilled*: it computes host-side instead of failing the
// run. The Device tag never changes kernel arithmetic, so a spilled shard
// still produces identical bits; the trainers report the count as
// StageStats::shard_spills.

#ifndef SGNN_SHARD_SPMM_H_
#define SGNN_SHARD_SPMM_H_

#include <cstdint>

#include "opgraph/graph.h"
#include "shard/plan.h"
#include "tensor/matrix.h"

namespace sgnn::shard {

/// Counters for one operator's lifetime (all Apply calls).
struct ShardStats {
  int64_t applies = 0;       ///< halo-exchange rounds executed
  int64_t shard_spills = 0;  ///< shard-hops that ran host-side over budget
};

/// Applies a ShardPlan as one square operator. Not thread-safe for
/// concurrent Apply calls (filters apply propagation serially; the
/// parallelism lives inside the SpMM kernel).
class ShardedSpmmOperator : public opgraph::SpmmOperator {
 public:
  explicit ShardedSpmmOperator(const ShardPlan* plan);

  int64_t n() const override { return plan_->n; }
  void Apply(const Matrix& x, Matrix* out) const override;

  const ShardStats& stats() const { return stats_; }

 private:
  const ShardPlan* plan_;
  mutable ShardStats stats_;
};

}  // namespace sgnn::shard

#endif  // SGNN_SHARD_SPMM_H_

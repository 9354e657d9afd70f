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
// Memory model: each shard gets a DeviceTracker sub-budget (explicit, or
// accel capacity / K). A shard whose working set — slice storage + gathered
// input + local output — exceeds its budget is *spilled*: it computes
// host-side instead of failing the run. The Device tag never changes kernel
// arithmetic, so a spilled shard still produces identical bits; callers
// (runtime::Supervisor) journal spills as typed SHARD_SPILL cells.

#ifndef SGNN_SHARD_SPMM_H_
#define SGNN_SHARD_SPMM_H_

#include <cstdint>
#include <vector>

#include "opgraph/graph.h"
#include "shard/plan.h"
#include "tensor/device.h"
#include "tensor/matrix.h"

namespace sgnn::shard {

/// Execution knobs for one sharded operator.
struct ShardExecOptions {
  /// Device shard working sets target. Host makes every shard a no-budget
  /// host computation (MB precompute); kAccel streams one shard's working
  /// set through the accelerator at a time.
  Device compute_device = Device::kHost;
  /// Per-shard accelerator budget in bytes. 0 = DeviceTracker accel
  /// capacity / num_shards at Apply time (0 capacity = unlimited).
  size_t shard_budget_bytes = 0;
};

/// Counters for one operator's lifetime (all Apply calls).
struct ShardStats {
  int num_shards = 0;
  int64_t applies = 0;             ///< halo-exchange rounds executed
  int64_t halo_rows_gathered = 0;  ///< boundary rows fetched across shards
  size_t halo_bytes_gathered = 0;  ///< exchange traffic in bytes
  int64_t shard_spills = 0;        ///< shard-hops that ran host-side over budget
  /// Peak accelerator working set per shard (0 when the shard always
  /// spilled or the compute device is the host).
  std::vector<size_t> shard_peak_bytes;
  /// Spilled hop count per shard.
  std::vector<int64_t> shard_spill_counts;
};

/// Applies a ShardPlan as one square operator. Not thread-safe for
/// concurrent Apply calls (filters apply propagation serially; the
/// parallelism lives inside the SpMM kernel).
class ShardedSpmmOperator : public opgraph::SpmmOperator {
 public:
  explicit ShardedSpmmOperator(const ShardPlan* plan,
                               const ShardExecOptions& options = {});

  int64_t n() const override { return plan_->n; }
  void Apply(const Matrix& x, Matrix* out) const override;

  /// Budget one shard's working set must fit to use the accelerator.
  size_t ResolvedBudget() const;

  const ShardStats& stats() const { return stats_; }
  void ResetStats();

 private:
  const ShardPlan* plan_;
  ShardExecOptions options_;
  mutable ShardStats stats_;
};

}  // namespace sgnn::shard

#endif  // SGNN_SHARD_SPMM_H_

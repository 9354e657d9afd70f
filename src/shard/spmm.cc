#include "shard/spmm.h"

#include <cstring>

#include "tensor/device.h"
#include "tensor/status.h"

namespace sgnn::shard {

ShardedSpmmOperator::ShardedSpmmOperator(const ShardPlan* plan) : plan_(plan) {
  SGNN_CHECK(plan_ != nullptr, "sharded operator needs a plan");
}

void ShardedSpmmOperator::Apply(const Matrix& x, Matrix* out) const {
  SGNN_CHECK(x.rows() == plan_->n, "sharded Apply: input rows != plan n");
  SGNN_CHECK(out->rows() == plan_->n && out->cols() == x.cols(),
             "sharded Apply: output must be pre-shaped (n, F)");
  ++stats_.applies;
  const int64_t f = x.cols();
  const size_t row_bytes = static_cast<size_t>(f) * sizeof(float);
  // Each shard's accelerator sub-budget (0 = unlimited).
  const size_t budget = DeviceTracker::Global().accel_capacity() /
                        static_cast<size_t>(plan_->num_shards);

  // Shards execute and merge in ascending shard order — the same
  // ordered-lane-merge discipline sparse/push.cc uses for frontier lanes.
  // Owned rows are disjoint across shards, so the fixed order is what makes
  // the merge (and the DeviceTracker allocation sequence) reproducible.
  for (int s = 0; s < plan_->num_shards; ++s) {
    const ShardSlice& slice = plan_->slices[static_cast<size_t>(s)];
    const int64_t owned_n = slice.owned_count();
    if (owned_n == 0) continue;
    const int64_t local_n = slice.local_n();

    // Working set this shard needs resident while computing: its CSR slice
    // plus the gathered input and local output buffers.
    const size_t mat_bytes = static_cast<size_t>(local_n) * row_bytes;
    const size_t working = slice.local.bytes() + 2 * mat_bytes;

    Device dev = Device::kAccel;
    if (budget > 0 && working > budget) {
      // Spill: the shard cannot fit its accelerator sub-budget, so this hop
      // computes host-side (identical bits — the tag changes placement
      // only).
      dev = Device::kHost;
      ++stats_.shard_spills;
    }

    // Halo exchange: gather the rows this shard reads (owned ++ halo) from
    // the global representation into the shard-local buffer, bit-copied.
    Matrix local_x(local_n, f, dev);
    for (int64_t i = 0; i < local_n; ++i) {
      std::memcpy(local_x.row(i), x.row(slice.gather[static_cast<size_t>(i)]),
                  row_bytes);
    }

    // The slice streams onto the compute device for the hop. Slices are
    // stored host-side in the (shared, const) plan, so an accelerator hop
    // accounts the slice's bytes for this shard's turn instead of
    // re-tagging the matrix.
    Matrix local_out(local_n, f, dev);
    const DeviceBytes resident(
        dev, dev == Device::kAccel ? slice.local.bytes() : 0);
    slice.local.SpMM(local_x, &local_out);

    // Ordered merge: scatter the owned rows of the local product back into
    // the global output. Local row i is exactly global row owned[i].
    for (int64_t i = 0; i < owned_n; ++i) {
      std::memcpy(out->row(slice.owned[static_cast<size_t>(i)]), local_out.row(i),
                  row_bytes);
    }
  }
}

}  // namespace sgnn::shard

#include "shard/plan.h"

namespace sgnn::shard {

ShardPlan BuildShardPlan(const sparse::CsrMatrix& prop,
                         const PartitionOptions& options) {
  ShardPlan plan;
  plan.num_shards = options.num_shards;
  plan.n = prop.n();
  plan.partition = GreedyBfsPartition(prop, options);
  plan.stats = ComputeEdgeCut(prop, plan.partition);
  plan.slices.resize(static_cast<size_t>(options.num_shards));

  const auto& indptr = prop.indptr();
  const auto& indices = prop.indices();
  const auto& values = prop.values();

  // Global -> local id scratch, reused across shards and reset through the
  // gather list so plan construction stays O(n + m) overall.
  std::vector<int32_t> local_id(static_cast<size_t>(plan.n), -1);

  for (int s = 0; s < options.num_shards; ++s) {
    ShardSlice& slice = plan.slices[static_cast<size_t>(s)];
    slice.owned = plan.partition.owned[static_cast<size_t>(s)];
    const int64_t owned_n = slice.owned_count();
    for (int64_t i = 0; i < owned_n; ++i) {
      local_id[static_cast<size_t>(slice.owned[static_cast<size_t>(i)])] =
          static_cast<int32_t>(i);
    }

    // Pass 1: discover halo vertices in first-reference order (owned rows
    // ascending, entries in CSR order — deterministic) and count slice nnz.
    int64_t slice_nnz = 0;
    for (int64_t i = 0; i < owned_n; ++i) {
      const int32_t u = slice.owned[static_cast<size_t>(i)];
      for (int64_t p = indptr[u]; p < indptr[u + 1]; ++p) {
        const int32_t v = indices[static_cast<size_t>(p)];
        ++slice_nnz;
        if (local_id[static_cast<size_t>(v)] == -1) {
          local_id[static_cast<size_t>(v)] =
              static_cast<int32_t>(owned_n + slice.halo_count());
          slice.halo.push_back(v);
        }
      }
    }

    // Pass 2: emit the slice CSR. Owned rows keep their global entry order
    // and float values verbatim; halo rows are empty padding so the slice is
    // square and the stock SpMM kernel applies unmodified.
    const int64_t local_n = owned_n + slice.halo_count();
    std::vector<int64_t> l_indptr(static_cast<size_t>(local_n) + 1, 0);
    std::vector<int32_t> l_indices;
    std::vector<float> l_values;
    l_indices.reserve(static_cast<size_t>(slice_nnz));
    l_values.reserve(static_cast<size_t>(slice_nnz));
    for (int64_t i = 0; i < owned_n; ++i) {
      const int32_t u = slice.owned[static_cast<size_t>(i)];
      for (int64_t p = indptr[u]; p < indptr[u + 1]; ++p) {
        l_indices.push_back(local_id[static_cast<size_t>(indices[static_cast<size_t>(p)])]);
        l_values.push_back(values[static_cast<size_t>(p)]);
      }
      l_indptr[static_cast<size_t>(i) + 1] = static_cast<int64_t>(l_indices.size());
    }
    for (int64_t i = owned_n; i < local_n; ++i) {
      l_indptr[static_cast<size_t>(i) + 1] = l_indptr[static_cast<size_t>(i)];
    }
    slice.local = sparse::CsrMatrix(local_n, std::move(l_indptr),
                                    std::move(l_indices), std::move(l_values),
                                    Device::kHost);

    slice.gather = slice.owned;
    slice.gather.insert(slice.gather.end(), slice.halo.begin(), slice.halo.end());
    plan.stats.total_halo += slice.halo_count();

    for (const int32_t g : slice.gather) local_id[static_cast<size_t>(g)] = -1;
  }
  return plan;
}

}  // namespace sgnn::shard

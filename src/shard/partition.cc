#include "shard/partition.h"

#include <algorithm>
#include <deque>

#include "tensor/rng.h"
#include "tensor/status.h"

namespace sgnn::shard {

Partition GreedyBfsPartition(const sparse::CsrMatrix& graph,
                             const PartitionOptions& options) {
  SGNN_CHECK(options.num_shards >= 1, "num_shards must be >= 1");
  const int64_t n = graph.n();
  const int k = options.num_shards;

  Partition part;
  part.num_shards = k;
  part.shard_of.assign(static_cast<size_t>(n), -1);
  part.owned.resize(static_cast<size_t>(k));
  if (n == 0) return part;

  // Seeded node permutation: BFS roots (and restart points for exhausted
  // components) are drawn from it in order, so the partition depends only on
  // (graph, seed) — never on thread count or iteration timing.
  std::vector<int32_t> perm(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) perm[static_cast<size_t>(v)] = static_cast<int32_t>(v);
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL);
  Shuffle(&perm, &rng);

  const int64_t target = (n + k - 1) / k;  // ceil(n / K)
  size_t cursor = 0;                       // next permutation candidate
  int64_t assigned = 0;

  for (int s = 0; s < k && assigned < n; ++s) {
    // The last shard absorbs everything left; earlier shards stop at the
    // balance target, so every shard holds at most ceil(n / K) nodes.
    const int64_t quota = (s + 1 == k) ? (n - assigned) : std::min(target, n - assigned);
    int64_t size = 0;
    std::deque<int32_t> queue;
    while (size < quota) {
      if (queue.empty()) {
        while (cursor < perm.size() && part.shard_of[static_cast<size_t>(perm[cursor])] != -1) {
          ++cursor;
        }
        if (cursor >= perm.size()) break;
        queue.push_back(perm[cursor]);
        part.shard_of[static_cast<size_t>(perm[cursor])] = static_cast<int32_t>(s);
      }
      const int32_t u = queue.front();
      queue.pop_front();
      ++size;
      if (size >= quota) break;
      // Claim unassigned neighbors in CSR row order (deterministic frontier).
      const auto& indptr = graph.indptr();
      const auto& indices = graph.indices();
      for (int64_t p = indptr[u]; p < indptr[u + 1] && size + static_cast<int64_t>(queue.size()) < quota; ++p) {
        const int32_t v = indices[static_cast<size_t>(p)];
        if (part.shard_of[static_cast<size_t>(v)] == -1) {
          part.shard_of[static_cast<size_t>(v)] = static_cast<int32_t>(s);
          queue.push_back(v);
        }
      }
    }
    assigned += size + static_cast<int64_t>(queue.size());
    // Queued-but-unpopped nodes are already tagged with shard s; they count
    // toward its size and simply never expand.
  }

  // Owned lists ascend in global id regardless of BFS discovery order, so
  // downstream local row numbering is a pure function of the assignment.
  for (int64_t v = 0; v < n; ++v) {
    SGNN_CHECK(part.shard_of[static_cast<size_t>(v)] >= 0, "partition left a node unassigned");
    part.owned[static_cast<size_t>(part.shard_of[static_cast<size_t>(v)])].push_back(
        static_cast<int32_t>(v));
  }
  return part;
}

EdgeCutStats ComputeEdgeCut(const sparse::CsrMatrix& graph,
                            const Partition& partition) {
  EdgeCutStats stats;
  stats.total_edges = graph.nnz();
  stats.total_owned = graph.n();
  const auto& indptr = graph.indptr();
  const auto& indices = graph.indices();
  for (int64_t u = 0; u < graph.n(); ++u) {
    const int32_t su = partition.shard_of[static_cast<size_t>(u)];
    for (int64_t p = indptr[u]; p < indptr[u + 1]; ++p) {
      if (partition.shard_of[static_cast<size_t>(indices[static_cast<size_t>(p)])] != su) {
        ++stats.cut_edges;
      }
    }
  }
  return stats;
}

}  // namespace sgnn::shard

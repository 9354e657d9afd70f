#include "graph/graph.h"

#include <algorithm>
#include <numeric>

namespace sgnn::graph {

Splits RandomSplits(int64_t n, uint64_t seed, double train_frac,
                    double val_frac) {
  std::vector<int32_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed ^ 0xA5F152EDB001ULL);
  Shuffle(&perm, &rng);
  const auto n_train = static_cast<size_t>(train_frac * static_cast<double>(n));
  const auto n_val = static_cast<size_t>(val_frac * static_cast<double>(n));
  Splits s;
  s.train.assign(perm.begin(), perm.begin() + static_cast<int64_t>(n_train));
  s.val.assign(perm.begin() + static_cast<int64_t>(n_train),
               perm.begin() + static_cast<int64_t>(n_train + n_val));
  s.test.assign(perm.begin() + static_cast<int64_t>(n_train + n_val),
                perm.end());
  return s;
}

double NodeHomophily(const Graph& g) {
  const auto& indptr = g.adj.indptr();
  const auto& indices = g.adj.indices();
  double total = 0.0;
  int64_t counted = 0;
  for (int64_t v = 0; v < g.n; ++v) {
    int64_t same = 0, deg = 0;
    for (int64_t p = indptr[static_cast<size_t>(v)];
         p < indptr[static_cast<size_t>(v) + 1]; ++p) {
      const int32_t u = indices[static_cast<size_t>(p)];
      if (u == v) continue;  // skip self loop
      ++deg;
      if (g.labels[static_cast<size_t>(u)] == g.labels[static_cast<size_t>(v)])
        ++same;
    }
    if (deg > 0) {
      total += static_cast<double>(same) / static_cast<double>(deg);
      ++counted;
    }
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

void DegreeBuckets(const Graph& g, std::vector<int32_t>* low,
                   std::vector<int32_t>* high) {
  std::vector<int64_t> deg(static_cast<size_t>(g.n));
  for (int64_t v = 0; v < g.n; ++v) deg[static_cast<size_t>(v)] = g.adj.RowDegree(v) - 1;
  std::vector<int64_t> sorted = deg;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const int64_t median = sorted[sorted.size() / 2];
  low->clear();
  high->clear();
  for (int64_t v = 0; v < g.n; ++v) {
    if (deg[static_cast<size_t>(v)] > median) {
      high->push_back(static_cast<int32_t>(v));
    } else {
      low->push_back(static_cast<int32_t>(v));
    }
  }
}

}  // namespace sgnn::graph

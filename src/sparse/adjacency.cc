#include "sparse/adjacency.h"

#include <algorithm>
#include <cmath>

namespace sgnn::sparse {

Result<CsrMatrix> BuildAdjacency(int64_t n, const EdgeList& edges,
                                 bool add_self_loops) {
  if (n <= 0) return Status::InvalidArgument("BuildAdjacency: n must be > 0");
  // Symmetrized, deduplicated edge set built via sort-unique over directed
  // pairs. Memory: O(m) int64 keys.
  std::vector<int64_t> keys;
  keys.reserve(edges.size() * 2 + (add_self_loops ? static_cast<size_t>(n) : 0));
  for (const auto& [u, v] : edges) {
    if (u < 0 || v < 0 || u >= n || v >= n) {
      return Status::InvalidArgument("BuildAdjacency: edge endpoint out of range");
    }
    keys.push_back(static_cast<int64_t>(u) * n + v);
    keys.push_back(static_cast<int64_t>(v) * n + u);
  }
  if (add_self_loops) {
    for (int64_t i = 0; i < n; ++i) keys.push_back(i * n + i);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<int64_t> indptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int32_t> indices(keys.size());
  std::vector<float> values(keys.size(), 1.0f);
  for (size_t p = 0; p < keys.size(); ++p) {
    const int64_t row = keys[p] / n;
    indptr[static_cast<size_t>(row) + 1]++;
    indices[p] = static_cast<int32_t>(keys[p] % n);
  }
  for (int64_t i = 0; i < n; ++i)
    indptr[static_cast<size_t>(i) + 1] += indptr[static_cast<size_t>(i)];
  return CsrMatrix(n, std::move(indptr), std::move(indices), std::move(values));
}

CsrMatrix NormalizeAdjacency(const CsrMatrix& adj, double rho) {
  const int64_t n = adj.n();
  const std::vector<double> deg = adj.RowSums();
  std::vector<double> left(static_cast<size_t>(n)), right(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double d = deg[static_cast<size_t>(i)];
    if (d > 0) {
      left[static_cast<size_t>(i)] = std::pow(d, rho - 1.0);
      right[static_cast<size_t>(i)] = std::pow(d, -rho);
    } else {
      left[static_cast<size_t>(i)] = 0.0;
      right[static_cast<size_t>(i)] = 0.0;
    }
  }
  std::vector<float> values = adj.values();
  const auto& indptr = adj.indptr();
  const auto& indices = adj.indices();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = indptr[static_cast<size_t>(i)];
         p < indptr[static_cast<size_t>(i) + 1]; ++p) {
      values[static_cast<size_t>(p)] = static_cast<float>(
          values[static_cast<size_t>(p)] * left[static_cast<size_t>(i)] *
          right[static_cast<size_t>(indices[static_cast<size_t>(p)])]);
    }
  }
  return CsrMatrix(n, adj.indptr(), adj.indices(), std::move(values),
                   adj.device());
}

std::vector<int64_t> Degrees(const CsrMatrix& adj) {
  std::vector<int64_t> deg(static_cast<size_t>(adj.n()));
  for (int64_t i = 0; i < adj.n(); ++i)
    deg[static_cast<size_t>(i)] = adj.RowDegree(i);
  return deg;
}

}  // namespace sgnn::sparse

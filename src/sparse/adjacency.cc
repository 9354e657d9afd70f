#include "sparse/adjacency.h"

#include <algorithm>
#include <cmath>

namespace sgnn::sparse {

Result<CsrMatrix> BuildAdjacency(int64_t n, const EdgeList& edges,
                                 bool add_self_loops) {
  if (n <= 0) return Status::InvalidArgument("BuildAdjacency: n must be > 0");
  // indptr[i + 1] counts row i's directed entries, duplicates included.
  std::vector<int64_t> indptr(static_cast<size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u < 0 || v < 0 || u >= n || v >= n) {
      return Status::InvalidArgument("BuildAdjacency: edge endpoint out of range");
    }
    ++indptr[static_cast<size_t>(u) + 1];
    ++indptr[static_cast<size_t>(v) + 1];
  }
  if (add_self_loops) {
    for (size_t i = 1; i < indptr.size(); ++i) ++indptr[i];
  }
  for (size_t i = 1; i < indptr.size(); ++i) indptr[i] += indptr[i - 1];

  // Scatters both directions of every edge, then the self loops, into their
  // rows; indptr[i] advances from row i's start to its end.
  std::vector<int32_t> entries(static_cast<size_t>(indptr.back()));
  for (const auto& [u, v] : edges) {
    entries[static_cast<size_t>(indptr[static_cast<size_t>(u)]++)] = v;
    entries[static_cast<size_t>(indptr[static_cast<size_t>(v)]++)] = u;
  }
  if (add_self_loops) {
    for (int64_t i = 0; i < n; ++i) {
      entries[static_cast<size_t>(indptr[static_cast<size_t>(i)]++)] =
          static_cast<int32_t>(i);
    }
  }

  // Sorts and deduplicates each row, packing the rows to the front; indptr[i]
  // goes from row i's old end to its packed start. The rows come out as the
  // sort-unique of all (row, column) pairs would give them.
  int64_t begin = 0;
  int64_t nnz = 0;
  for (size_t i = 0; i + 1 < indptr.size(); ++i) {
    const int64_t end = indptr[i];
    const auto first = entries.begin() + begin;
    std::sort(first, entries.begin() + end);
    const auto last = std::unique(first, entries.begin() + end);
    if (nnz != begin) std::copy(first, last, entries.begin() + nnz);
    indptr[i] = nnz;
    nnz += last - first;
    begin = end;
  }
  indptr.back() = nnz;
  std::vector<int32_t> indices(entries.begin(), entries.begin() + nnz);
  std::vector<float> values(indices.size(), 1.0f);
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

}  // namespace sgnn::sparse

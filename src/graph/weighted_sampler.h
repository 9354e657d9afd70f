// Weighted node sampler of the synthetic graph generator.
//
// Internal to src/graph: generator.cc draws every DC-SBM endpoint through
// it, and graph_test checks each draw against std::upper_bound.

#ifndef SGNN_GRAPH_WEIGHTED_SAMPLER_H_
#define SGNN_GRAPH_WEIGHTED_SAMPLER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/rng.h"

namespace sgnn::graph {

/// Draws a node of a subset with probability proportional to its weight.
///
/// A draw takes u = Uniform() * total and returns the node at the first
/// index whose cumulative weight exceeds u, or the last node when none does
/// (u can round up to the total). That is the index `std::upper_bound` over
/// the cumulative sums gives, clamped to the last one. A guide table with
/// one entry per node cuts [0, total] into equal-width buckets; each entry
/// is a lower bound on that index for every u in its bucket, so a short
/// forward scan from it finds the index exactly, in O(1) expected steps
/// instead of O(log n).
class WeightedSampler {
 public:
  /// `weights` is indexed by node id and must be >= 0 at every node of
  /// `nodes`, which must not be empty.
  WeightedSampler(const std::vector<int32_t>& nodes,
                  const std::vector<double>& weights)
      : nodes_(nodes), cumulative_(nodes.size()), guide_(nodes.size()) {
    double acc = 0.0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      acc += weights[static_cast<size_t>(nodes[i])];
      cumulative_[i] = acc;
    }
    total_ = acc;
    // A zero total leaves one bucket, so every draw scans from index 0.
    const double scale = static_cast<double>(guide_.size()) / total_;
    scale_ = std::isfinite(scale) ? scale : 0.0;
    // guide_[b]: the first index whose cumulative weight lies in bucket b
    // or a later one, clamped to the last index. Any earlier cumulative
    // weight lies in an earlier bucket, so it is below every u of bucket b
    // (Bucket is monotone) and cannot be the answer.
    size_t i = 0;
    for (size_t b = 0; b < guide_.size(); ++b) {
      while (i + 1 < cumulative_.size() && Bucket(cumulative_[i]) < b) ++i;
      guide_[b] = static_cast<uint32_t>(i);
    }
  }

  int32_t Sample(Rng* rng) const {
    return nodes_[Index(rng->Uniform() * total_)];
  }

  /// min(upper_bound(cumulative, u) - begin, size - 1) for u >= 0.
  size_t Index(double u) const {
    size_t i = guide_[Bucket(u)];
    while (i + 1 < cumulative_.size() && cumulative_[i] <= u) ++i;
    return i;
  }

 private:
  /// floor(x * scale_), capped at the last bucket; monotone in x.
  size_t Bucket(double x) const {
    const size_t last = guide_.size() - 1;
    const double b = x * scale_;
    return b < static_cast<double>(last) ? static_cast<size_t>(b) : last;
  }

  std::vector<int32_t> nodes_;
  std::vector<double> cumulative_;
  std::vector<uint32_t> guide_;
  double total_ = 0.0;
  double scale_ = 0.0;
};

}  // namespace sgnn::graph

#endif  // SGNN_GRAPH_WEIGHTED_SAMPLER_H_

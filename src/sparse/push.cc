#include "sparse/push.h"

#include <algorithm>
#include <cmath>

#include "tensor/parallel.h"
#include "tensor/status.h"

namespace sgnn::sparse {

namespace {

/// Lane partition of a frontier: boundaries depend only on the frontier
/// size (never the thread count), so the ordered merge below produces the
/// same bits at 1 and N threads. At most kMaxLanes lanes are ever live,
/// which bounds the O(n) per-lane delta buffers.
constexpr int64_t kMaxLanes = 8;
constexpr int64_t kMinLaneGrain = 64;

int64_t LaneGrain(int64_t frontier_size) {
  return std::max(kMinLaneGrain, (frontier_size + kMaxLanes - 1) / kMaxLanes);
}

/// Residual mass spread by one lane of frontier sources, kept separate per
/// lane so lanes can run concurrently and still be merged in lane order.
struct LaneBuffer {
  std::vector<double> delta;    ///< dense per-node accumulated mass
  std::vector<int32_t> touched; ///< nodes with (possibly) nonzero delta,
                                ///< in first-touch order within the lane
  int64_t edge_touches = 0;

  void EnsureSize(int64_t n) {
    if (static_cast<int64_t>(delta.size()) < n) {
      delta.assign(static_cast<size_t>(n), 0.0);
    }
  }
};

}  // namespace

PushStats ApproxPprPush(const CsrMatrix& norm, const PushConfig& config,
                        const std::vector<float>& x,
                        std::vector<float>* out) {
  const int64_t n = norm.n();
  SGNN_CHECK(static_cast<int64_t>(x.size()) == n,
             "ApproxPprPush: signal size mismatch");
  PushStats stats;
  std::vector<double> residual(x.begin(), x.end());
  std::vector<double> reserve(static_cast<size_t>(n), 0.0);
  const auto& indptr = norm.indptr();
  const auto& indices = norm.indices();
  const auto& values = norm.values();
  const double alpha = config.alpha;

  auto threshold = [&](int64_t u) {
    return config.epsilon *
           static_cast<double>(indptr[static_cast<size_t>(u) + 1] -
                               indptr[static_cast<size_t>(u)] + 1);
  };

  // Synchronous rounds: gather the frontier of super-threshold nodes,
  // convert their residual to reserve, and spread the remainder along
  // edges. Per-source-range lanes accumulate into thread-local delta
  // buffers; lanes are merged into `residual` in lane order, so the
  // parallel schedule never changes the floating-point summation order.
  std::vector<int32_t> frontier;
  std::vector<double> r_front;
  std::vector<LaneBuffer> lanes;

  while (true) {
    frontier.clear();
    for (int64_t u = 0; u < n; ++u) {
      if (std::fabs(residual[static_cast<size_t>(u)]) > threshold(u)) {
        frontier.push_back(static_cast<int32_t>(u));
      }
    }
    if (frontier.empty()) break;
    const int64_t fs = static_cast<int64_t>(frontier.size());
    stats.pushes += fs;

    // Snapshot and settle the frontier before any spreading: lanes read
    // only the snapshot, so merge timing cannot affect what they see.
    r_front.resize(static_cast<size_t>(fs));
    for (int64_t i = 0; i < fs; ++i) {
      const auto u = static_cast<size_t>(frontier[static_cast<size_t>(i)]);
      r_front[static_cast<size_t>(i)] = residual[u];
      reserve[u] += alpha * residual[u];
      residual[u] = 0.0;
    }

    const int64_t grain = LaneGrain(fs);
    const int64_t num_lanes = parallel::NumChunks(0, fs, grain);
    const bool concurrent = parallel::NumThreads() > 1 &&
                            !parallel::InParallelRegion() && num_lanes > 1;
    // Serial execution merges each lane immediately and reuses one buffer;
    // concurrent execution gives every lane its own buffer and merges after
    // the barrier. Both orders are "lane 0 fully, then lane 1, ..." so the
    // results are identical.
    lanes.resize(static_cast<size_t>(concurrent ? num_lanes : 1));

    auto spread_lane = [&](LaneBuffer* lane, int64_t lo, int64_t hi) {
      lane->EnsureSize(n);
      for (int64_t i = lo; i < hi; ++i) {
        const auto u = static_cast<size_t>(frontier[static_cast<size_t>(i)]);
        const double spread =
            (1.0 - alpha) * r_front[static_cast<size_t>(i)];
        for (int64_t p = indptr[u]; p < indptr[u + 1]; ++p) {
          const auto v = static_cast<size_t>(indices[static_cast<size_t>(p)]);
          // Row-wise application of Ã: mass flows along Ã[v][u]; for the
          // symmetric normalization Ã[v][u] == Ã[u][v], so the row weight
          // is reusable here.
          if (lane->delta[v] == 0.0) {
            lane->touched.push_back(static_cast<int32_t>(v));
          }
          lane->delta[v] += spread * double(values[static_cast<size_t>(p)]);
          ++lane->edge_touches;
        }
      }
    };
    auto merge_lane = [&](LaneBuffer* lane) {
      for (const int32_t v : lane->touched) {
        residual[static_cast<size_t>(v)] += lane->delta[static_cast<size_t>(v)];
        lane->delta[static_cast<size_t>(v)] = 0.0;
      }
      lane->touched.clear();
      stats.edge_touches += lane->edge_touches;
      lane->edge_touches = 0;
    };

    if (concurrent) {
      parallel::ParallelFor(0, fs, grain, [&](int64_t lo, int64_t hi) {
        spread_lane(&lanes[static_cast<size_t>(lo / grain)], lo, hi);
      });
      for (auto& lane : lanes) merge_lane(&lane);
    } else {
      for (int64_t lane_idx = 0; lane_idx < num_lanes; ++lane_idx) {
        const int64_t lo = lane_idx * grain;
        const int64_t hi = std::min(fs, lo + grain);
        spread_lane(&lanes[0], lo, hi);
        merge_lane(&lanes[0]);
      }
    }
  }

  out->resize(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    // Unpushed residual still contributes its α-weighted mass (first-order
    // correction keeps the estimate unbiased at threshold scale).
    (*out)[static_cast<size_t>(u)] = static_cast<float>(
        reserve[static_cast<size_t>(u)] +
        alpha * residual[static_cast<size_t>(u)]);
    stats.residual_l1 += std::fabs(residual[static_cast<size_t>(u)]);
  }
  return stats;
}

PushStats ApproxPprPushMatrix(const CsrMatrix& norm, const PushConfig& config,
                              const Matrix& x, Matrix* out) {
  SGNN_CHECK(x.rows() == norm.n(), "ApproxPprPushMatrix: shape mismatch");
  *out = Matrix(x.rows(), x.cols(), x.device());
  // Feature channels are independent pushes, so the matrix form
  // parallelizes across columns; the nested per-column push then runs its
  // lanes serially (nested-call fallback). Stats are reduced in column
  // order below regardless of which thread ran which column.
  std::vector<PushStats> col_stats(static_cast<size_t>(x.cols()));
  parallel::ParallelFor(0, x.cols(), 1, [&](int64_t lo, int64_t hi) {
    std::vector<float> column(static_cast<size_t>(x.rows()));
    std::vector<float> result;
    for (int64_t f = lo; f < hi; ++f) {
      for (int64_t i = 0; i < x.rows(); ++i) {
        column[static_cast<size_t>(i)] = x.at(i, f);
      }
      col_stats[static_cast<size_t>(f)] =
          ApproxPprPush(norm, config, column, &result);
      for (int64_t i = 0; i < x.rows(); ++i) {
        out->at(i, f) = result[static_cast<size_t>(i)];
      }
    }
  });
  PushStats total;
  for (const PushStats& s : col_stats) {
    total.pushes += s.pushes;
    total.edge_touches += s.edge_touches;
    total.residual_l1 += s.residual_l1;
  }
  return total;
}

}  // namespace sgnn::sparse

#include "graph/generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "graph/weighted_sampler.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::graph {

namespace {

/// Assigns labels with optional skew; returns per-class node lists.
std::vector<std::vector<int32_t>> AssignLabels(const GeneratorConfig& config,
                                               Rng* rng,
                                               std::vector<int32_t>* labels) {
  const int32_t c = config.num_classes;
  std::vector<double> class_weight(static_cast<size_t>(c));
  for (int32_t k = 0; k < c; ++k) {
    class_weight[static_cast<size_t>(k)] =
        std::exp(-config.class_skew * static_cast<double>(k));
  }
  const double total =
      std::accumulate(class_weight.begin(), class_weight.end(), 0.0);
  labels->resize(static_cast<size_t>(config.n));
  std::vector<std::vector<int32_t>> by_class(static_cast<size_t>(c));
  for (int64_t v = 0; v < config.n; ++v) {
    double u = rng->Uniform() * total;
    int32_t y = c - 1;
    for (int32_t k = 0; k < c; ++k) {
      u -= class_weight[static_cast<size_t>(k)];
      if (u <= 0) {
        y = k;
        break;
      }
    }
    (*labels)[static_cast<size_t>(v)] = y;
    by_class[static_cast<size_t>(y)].push_back(static_cast<int32_t>(v));
  }
  // Guarantee every class is non-empty so samplers are well-defined.
  for (int32_t k = 0; k < c; ++k) {
    if (by_class[static_cast<size_t>(k)].empty()) {
      const auto v = static_cast<int32_t>(rng->UniformInt(
          static_cast<uint64_t>(config.n)));
      const int32_t old = (*labels)[static_cast<size_t>(v)];
      auto& from = by_class[static_cast<size_t>(old)];
      from.erase(std::find(from.begin(), from.end(), v));
      (*labels)[static_cast<size_t>(v)] = k;
      by_class[static_cast<size_t>(k)].push_back(v);
    }
  }
  return by_class;
}

/// Builds features from labels + topology per the configured encoding.
void EncodeFeatures(const GeneratorConfig& config, Rng* rng, Graph* g) {
  const int32_t c = g->num_classes;
  const int64_t fi = config.feature_dim;
  // Random class centroids, row-normalized for comparable SNR across dims.
  Matrix centroids(c, fi, Device::kHost);
  centroids.FillNormal(rng);
  ops::RowL2Normalize(&centroids);

  Matrix signal(g->n, fi, Device::kHost);
  for (int64_t v = 0; v < g->n; ++v) {
    std::memcpy(signal.row(v), centroids.row(g->labels[static_cast<size_t>(v)]),
                static_cast<size_t>(fi) * sizeof(float));
  }

  Matrix x(g->n, fi, Device::kHost);
  if (config.encoding == SignalEncoding::kDirect) {
    ops::Copy(signal, &x);
  } else {
    // One symmetric-normalized propagation P = Ã (ρ = 1/2).
    sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g->adj, 0.5);
    Matrix prop(g->n, fi, Device::kHost);
    norm.SpMM(signal, &prop);
    if (config.encoding == SignalEncoding::kNeighborhood) {
      // X = Ã S + eps * S.
      ops::Copy(prop, &x);
      ops::Axpy(static_cast<float>(config.identity_mix), signal, &x);
    } else {
      // kHighFrequency: X = (I - Ã) S + eps * S = L̃ S + eps * S.
      ops::Copy(signal, &x);
      ops::Axpy(-1.0f, prop, &x);
      ops::Scale(1.0f, &x);
      ops::Axpy(static_cast<float>(config.identity_mix), signal, &x);
    }
  }
  // Additive attribute noise.
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] += static_cast<float>(rng->Normal(0.0, config.noise /
                                                  std::sqrt(double(fi))));
  }
  g->features = std::move(x);
}

}  // namespace

Graph GenerateSbm(const GeneratorConfig& base_config) {
  GeneratorConfig config = base_config;
  SGNN_CHECK(config.node_multiplier > 0.0,
             "GenerateSbm: node_multiplier must be positive");
  // llround(n * 1.0) == n exactly for any realistic n, so the default
  // multiplier is an identity.
  config.n = static_cast<int64_t>(
      std::llround(static_cast<double>(config.n) * config.node_multiplier));
  config.node_multiplier = 1.0;
  SGNN_CHECK(config.n > 1, "GenerateSbm: need at least two nodes");
  SGNN_CHECK(config.num_classes >= 2, "GenerateSbm: need >= 2 classes");
  Rng rng(config.seed);
  Graph g;
  g.n = config.n;
  g.num_classes = config.num_classes;

  auto by_class = AssignLabels(config, &rng, &g.labels);

  // Degree-correction propensities: Pareto(shape) draws, clamped.
  std::vector<double> propensity(static_cast<size_t>(config.n), 1.0);
  if (config.degree_tail > 0.0) {
    for (auto& w : propensity) {
      const double u = std::max(rng.Uniform(), 1e-12);
      w = std::min(std::pow(u, -1.0 / config.degree_tail), 1e3);
    }
  }
  std::vector<int32_t> all_nodes(static_cast<size_t>(config.n));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  WeightedSampler global_sampler(all_nodes, propensity);
  std::vector<WeightedSampler> class_samplers;
  class_samplers.reserve(by_class.size());
  for (const auto& nodes : by_class) {
    class_samplers.emplace_back(nodes, propensity);
  }

  const auto target_edges = static_cast<int64_t>(
      config.avg_degree * static_cast<double>(config.n) / 2.0);
  sparse::EdgeList edges;
  edges.reserve(static_cast<size_t>(target_edges));
  const int32_t c = config.num_classes;
  for (int64_t e = 0; e < target_edges; ++e) {
    const int32_t u = global_sampler.Sample(&rng);
    const int32_t yu = g.labels[static_cast<size_t>(u)];
    int32_t v = u;
    for (int attempt = 0; attempt < 16 && v == u; ++attempt) {
      if (rng.Bernoulli(config.homophily)) {
        v = class_samplers[static_cast<size_t>(yu)].Sample(&rng);
      } else if (rng.Bernoulli(config.hetero_uniform)) {
        v = global_sampler.Sample(&rng);
      } else {
        // Structured heterophily: connect to the cyclically-next class.
        const int32_t yv = static_cast<int32_t>((yu + 1) % c);
        v = class_samplers[static_cast<size_t>(yv)].Sample(&rng);
      }
    }
    if (v != u) edges.emplace_back(u, v);
  }

  auto adj = sparse::BuildAdjacency(config.n, edges, /*add_self_loops=*/true);
  SGNN_CHECK(adj.ok(), "GenerateSbm: adjacency construction failed");
  g.adj = adj.MoveValue();
  EncodeFeatures(config, &rng, &g);
  return g;
}

Graph GenerateGrid(int64_t rows, int64_t cols, const GeneratorConfig& config) {
  SGNN_CHECK(rows > 0 && cols > 0, "GenerateGrid: empty grid");
  Rng rng(config.seed);
  Graph g;
  g.n = rows * cols;
  g.num_classes = config.num_classes;
  GeneratorConfig label_config = config;
  label_config.n = g.n;
  // Patchy spatial labels: square tiles share a class, with per-node flips.
  // Larger tiles raise the realized homophily; flip rate fine-tunes it.
  const int64_t tile = 4;
  const double flip = std::clamp(1.0 - config.homophily, 0.0, 0.9);
  g.labels.resize(static_cast<size_t>(g.n));
  std::vector<int32_t> tile_class(
      static_cast<size_t>(((rows + tile - 1) / tile) *
                          ((cols + tile - 1) / tile)));
  for (auto& t : tile_class) {
    t = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(config.num_classes)));
  }
  const int64_t tiles_per_row = (cols + tile - 1) / tile;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t col = 0; col < cols; ++col) {
      const size_t tid = static_cast<size_t>((r / tile) * tiles_per_row + col / tile);
      int32_t y = tile_class[tid];
      if (rng.Bernoulli(flip)) {
        y = static_cast<int32_t>(
            rng.UniformInt(static_cast<uint64_t>(config.num_classes)));
      }
      g.labels[static_cast<size_t>(r * cols + col)] = y;
    }
  }

  sparse::EdgeList edges;
  edges.reserve(static_cast<size_t>(g.n) * 2);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t col = 0; col < cols; ++col) {
      const auto v = static_cast<int32_t>(r * cols + col);
      if (col + 1 < cols) edges.emplace_back(v, v + 1);
      if (r + 1 < rows) edges.emplace_back(v, static_cast<int32_t>(v + cols));
      // 8-neighborhood diagonals (minesweeper-style connectivity).
      if (r + 1 < rows && col + 1 < cols)
        edges.emplace_back(v, static_cast<int32_t>(v + cols + 1));
      if (r + 1 < rows && col > 0)
        edges.emplace_back(v, static_cast<int32_t>(v + cols - 1));
    }
  }
  auto adj = sparse::BuildAdjacency(g.n, edges, /*add_self_loops=*/true);
  SGNN_CHECK(adj.ok(), "GenerateGrid: adjacency construction failed");
  g.adj = adj.MoveValue();
  EncodeFeatures(label_config, &rng, &g);
  return g;
}

}  // namespace sgnn::graph

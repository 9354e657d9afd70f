#include "models/partition.h"

#include <algorithm>
#include <string>

#include "nn/loss.h"
#include "nn/mlp.h"
#include "shard/partition.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::models {

namespace {

/// One partition's materialized state.
struct Part {
  std::vector<int32_t> nodes;          ///< global ids, order = local ids
  sparse::CsrMatrix norm;              ///< induced normalized adjacency
  Matrix features;                     ///< gathered rows of X
  std::vector<int32_t> labels;         ///< per local node
  std::vector<int32_t> local_train;    ///< local ids in the train split
};

}  // namespace

TrainResult TrainGraphPartition(const graph::Graph& g,
                                const graph::Splits& splits,
                                graph::Metric metric,
                                filters::SpectralFilter* filter,
                                const PartitionConfig& config) {
  TrainResult result;
  result.status = CheckTrainConfig("TrainGraphPartition", config.base);
  if (!result.status.ok()) return result;
  if (config.num_parts < 1 || config.num_parts > g.n) {
    result.status = Status::InvalidArgument(
        "TrainGraphPartition: num_parts " + std::to_string(config.num_parts) +
        " is outside [1, " + std::to_string(g.n) + "]");
    return result;
  }
  const TrainConfig& base = config.base;
  EpochLoop loop(base, &result);
  Rng rng(base.seed * 0x6C62272E07BB0142ULL + 29);
  filter->ResetParameters(&rng);

  // Build parts: induced subgraphs, gathered features, relabeled splits.
  std::vector<Part> parts(static_cast<size_t>(config.num_parts));
  loop.RunPrecompute([&] {
    const std::vector<int32_t> part_of =
        shard::GreedyBfsPartition(g.adj, {config.num_parts, base.seed})
            .shard_of;
    std::vector<int32_t> local_id(static_cast<size_t>(g.n));
    for (int64_t v = 0; v < g.n; ++v) {
      auto& part = parts[static_cast<size_t>(part_of[static_cast<size_t>(v)])];
      local_id[static_cast<size_t>(v)] =
          static_cast<int32_t>(part.nodes.size());
      part.nodes.push_back(static_cast<int32_t>(v));
    }
    std::vector<bool> in_train(static_cast<size_t>(g.n), false);
    for (const int32_t v : splits.train) {
      in_train[static_cast<size_t>(v)] = true;
    }
    const auto& indptr = g.adj.indptr();
    const auto& indices = g.adj.indices();
    for (auto& part : parts) {
      const auto pn = static_cast<int64_t>(part.nodes.size());
      sparse::EdgeList edges;
      for (int64_t i = 0; i < pn; ++i) {
        const int32_t v = part.nodes[static_cast<size_t>(i)];
        for (int64_t p = indptr[static_cast<size_t>(v)];
             p < indptr[static_cast<size_t>(v) + 1]; ++p) {
          const int32_t u = indices[static_cast<size_t>(p)];
          if (u == v || part_of[static_cast<size_t>(u)] !=
                            part_of[static_cast<size_t>(v)]) {
            continue;  // severed cross-partition edge
          }
          if (local_id[static_cast<size_t>(u)] > i) {
            edges.emplace_back(static_cast<int32_t>(i),
                               local_id[static_cast<size_t>(u)]);
          }
        }
      }
      auto adj = sparse::BuildAdjacency(std::max<int64_t>(pn, 1), edges,
                                        /*add_self_loops=*/true);
      SGNN_CHECK(adj.ok(), "partition adjacency failed");
      part.norm = sparse::NormalizeAdjacency(adj.value(), base.rho);
      part.norm.MoveToDevice(Device::kAccel);
      part.features = g.features.GatherRows(part.nodes);
      part.features.MoveToDevice(Device::kAccel);
      part.labels.resize(part.nodes.size());
      for (size_t i = 0; i < part.nodes.size(); ++i) {
        part.labels[i] = g.labels[static_cast<size_t>(part.nodes[i])];
        if (in_train[static_cast<size_t>(part.nodes[i])]) {
          part.local_train.push_back(static_cast<int32_t>(i));
        }
      }
    }
    return Status::OK();
  });

  const int64_t fi = g.features.cols();
  const int64_t mid = base.phi0_layers > 0 ? base.hidden : fi;
  nn::Mlp phi0(base.phi0_layers, fi, base.hidden, base.hidden, base.dropout,
               Device::kAccel);
  nn::Mlp phi1(base.phi1_layers, mid, base.hidden, g.num_classes,
               base.dropout, Device::kAccel);
  phi0.Init(&rng);
  phi1.Init(&rng);

  auto forward_part = [&](Part& part, bool train, Matrix* logits) {
    filters::FilterContext ctx{&part.norm, Device::kAccel};
    Matrix h0, hf;
    phi0.Forward(part.features, &h0, train, train ? &rng : nullptr);
    filter->Forward(ctx, h0, &hf, train);
    phi1.Forward(hf, logits, train, train ? &rng : nullptr);
  };

  // Full-graph eval by sweeping parts.
  Matrix all_logits(g.n, g.num_classes, Device::kHost);
  auto eval_all = [&]() {
    for (auto& part : parts) {
      if (part.nodes.empty()) continue;
      Matrix logits;
      forward_part(part, /*train=*/false, &logits);
      ScatterRows(logits, part.nodes, &all_logits);
    }
  };

  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    EpochOutput out;
    for (auto& part : parts) {
      if (part.local_train.empty()) continue;
      Matrix logits;
      forward_part(part, /*train=*/true, &logits);
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      out.loss = nn::SoftmaxCrossEntropy(logits, part.labels,
                                         part.local_train, &grad);
      phi0.ZeroGrad();
      phi1.ZeroGrad();
      filter->params().ZeroGrad();
      filters::FilterContext ctx{&part.norm, Device::kAccel};
      Matrix g_hf(logits.rows(), mid, Device::kAccel);
      phi1.Backward(grad, &g_hf);
      Matrix g_h0;
      filter->Backward(ctx, g_hf, base.phi0_layers > 0 ? &g_h0 : nullptr);
      if (base.phi0_layers > 0) phi0.Backward(g_h0, nullptr);
      ++step;
      phi0.AdamStep(base.weights_opt, step);
      phi1.AdamStep(base.weights_opt, step);
      filter->params().AdamStep(base.filter_opt, step);
      filter->ClearCache();
    }
    return out;
  };
  bodies.evaluate = [&] {
    eval_all();
    if (loop.NewBest(
            EvaluateMetric(metric, all_logits, g.labels, splits.val))) {
      result.test_metric =
          EvaluateMetric(metric, all_logits, g.labels, splits.test);
      result.test_logits = all_logits;
    }
  };
  bodies.infer = eval_all;
  loop.Run(bodies);
  return result;
}

}  // namespace sgnn::models

#include "models/linkpred.h"

#include <utility>

#include "eval/metrics.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::models {

namespace {

/// Fraction of edges held out as test positives.
constexpr double kTestFrac = 0.2;

/// One scored node pair.
struct EdgeSample {
  int32_t u;
  int32_t v;
  float label;  // 1 positive, 0 negative
};

/// Collects undirected edges (u < v, no self loops) from the adjacency.
std::vector<std::pair<int32_t, int32_t>> CollectEdges(const graph::Graph& g) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  const auto& indptr = g.adj.indptr();
  const auto& indices = g.adj.indices();
  for (int64_t u = 0; u < g.n; ++u) {
    for (int64_t p = indptr[static_cast<size_t>(u)];
         p < indptr[static_cast<size_t>(u) + 1]; ++p) {
      const int32_t v = indices[static_cast<size_t>(p)];
      if (v > u) edges.emplace_back(static_cast<int32_t>(u), v);
    }
  }
  return edges;
}

}  // namespace

TrainResult TrainLinkPrediction(const graph::Graph& g,
                                filters::SpectralFilter* filter,
                                const LinkPredConfig& config) {
  const TrainConfig& base = config.base;
  TrainResult result;
  result.status = CheckTrainConfig("TrainLinkPrediction", base);
  if (result.status.ok()) {
    result.status = CheckBatching("TrainLinkPrediction", base, filter);
  }
  if (!result.status.ok()) return result;
  EpochLoop loop(base, &result);
  Rng rng(base.seed * 0x8B72E1F371C69AEDULL + 17);
  filter->ResetParameters(&rng);

  // Precompute filtered embeddings on the host (fixed-filter path folds θ;
  // variable filters keep per-hop terms and combine per batch).
  sparse::CsrMatrix norm;
  std::vector<Matrix> terms;
  loop.RunPrecompute([&] {
    norm = sparse::NormalizeAdjacency(g.adj, base.rho);
    const filters::FilterContext ctx{&norm, Device::kHost};
    return filter->Precompute(ctx, g.features, &terms);
  });
  if (!result.status.ok()) return result;

  // Edge samples: held-out positives + uniform negatives (κ per positive).
  std::vector<std::pair<int32_t, int32_t>> edges = CollectEdges(g);
  Shuffle(&edges, &rng);
  const auto n_test =
      static_cast<size_t>(kTestFrac * static_cast<double>(edges.size()));
  auto make_samples = [&](size_t begin, size_t end) {
    std::vector<EdgeSample> samples;
    samples.reserve((end - begin) * (1 + static_cast<size_t>(config.neg_ratio)));
    for (size_t i = begin; i < end; ++i) {
      samples.push_back({edges[i].first, edges[i].second, 1.0f});
      for (int k = 0; k < config.neg_ratio; ++k) {
        samples.push_back(
            {static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(g.n))),
             static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(g.n))),
             0.0f});
      }
    }
    return samples;
  };
  std::vector<EdgeSample> test_samples = make_samples(0, n_test);
  std::vector<EdgeSample> train_samples = make_samples(n_test, edges.size());

  const int64_t fi = g.features.cols();
  nn::Mlp scorer(2, fi, base.hidden, 1, base.dropout, Device::kAccel);
  scorer.Init(&rng);

  // Builds the Hadamard-product features h_u ⊙ h_v for a sample batch.
  // `hold_u` receives the u-side term slices; the caller keeps them until
  // its scorer pass is done.
  auto batch_features = [&](const std::vector<EdgeSample>& batch,
                            Matrix* feat, std::vector<Matrix>* hold_u) {
    std::vector<int32_t> us, vs;
    for (const EdgeSample& s : batch) {
      us.push_back(s.u);
      vs.push_back(s.v);
    }
    std::vector<Matrix> hold_v;
    std::vector<const Matrix*> ptrs_u, ptrs_v;
    for (const auto& term : terms) {
      hold_u->push_back(term.GatherRows(us));
      hold_u->back().MoveToDevice(Device::kAccel);
      hold_v.push_back(term.GatherRows(vs));
      hold_v.back().MoveToDevice(Device::kAccel);
    }
    for (const auto& m : *hold_u) ptrs_u.push_back(&m);
    for (const auto& m : hold_v) ptrs_v.push_back(&m);
    Matrix hu, hv;
    filter->CombineTerms(ptrs_u, &hu, /*cache=*/false);
    filter->CombineTerms(ptrs_v, &hv, /*cache=*/false);
    ops::MulInPlace(hv, &hu);
    *feat = std::move(hu);
  };

  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    EpochOutput out;
    Shuffle(&train_samples, &rng);
    ForEachBatch(train_samples, base.batch_size, [&](const auto& batch) {
      Matrix feat;
      std::vector<Matrix> hold;
      batch_features(batch, &feat, &hold);
      Matrix logits;
      scorer.Forward(feat, &logits, /*train=*/true, &rng);
      std::vector<float> targets;
      targets.reserve(batch.size());
      for (const EdgeSample& s : batch) targets.push_back(s.label);
      Matrix grad(logits.rows(), 1, Device::kAccel);
      out.loss = nn::BceWithLogits(logits, targets, &grad);
      scorer.ZeroGrad();
      scorer.Backward(grad, nullptr);
      ++step;
      scorer.AdamStep(base.weights_opt, step);
    });
    return out;
  };
  // Test AUC; timed as the inference pass.
  bodies.infer = [&] {
    std::vector<double> scores;
    std::vector<int32_t> truth;
    ForEachBatch(test_samples, base.batch_size, [&](const auto& batch) {
      Matrix feat;
      std::vector<Matrix> hold;
      batch_features(batch, &feat, &hold);
      Matrix logits;
      scorer.Forward(feat, &logits, /*train=*/false, nullptr);
      for (int64_t i = 0; i < logits.rows(); ++i) {
        scores.push_back(logits.at(i, 0));
        truth.push_back(batch[static_cast<size_t>(i)].label > 0.5f ? 1 : 0);
      }
    });
    result.test_metric = eval::RocAucFromScores(scores, truth);
  };
  loop.Run(bodies);
  return result;
}

}  // namespace sgnn::models

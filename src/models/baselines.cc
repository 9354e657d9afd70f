#include "models/baselines.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/loss.h"
#include "nn/mlp.h"
#include "sparse/adjacency.h"
#include "tensor/ops.h"

namespace sgnn::models {

namespace {

/// Two-layer message-passing trainer shared by GCN / SAGE / ChebNet.
TrainResult TrainMessagePassing(const graph::Graph& g,
                                const graph::Splits& splits,
                                graph::Metric metric, BaselineKind kind,
                                Backend backend, const TrainConfig& config) {
  TrainResult result;
  EpochLoop loop(config, &result);
  Rng rng(config.seed * 0x5851F42D4C957F2DULL + 11);

  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, config.rho);
  norm.MoveToDevice(Device::kAccel);
  Matrix x = g.features.CloneTo(Device::kAccel);
  std::unique_ptr<sparse::EdgeIndex> ei;
  if (backend == Backend::kEi) {
    ei = std::make_unique<sparse::EdgeIndex>(norm, Device::kAccel);
  }
  auto propagate = [&](const Matrix& h, Matrix* out) {
    if (ei != nullptr) {
      ei->PropagateGatherScatter(h, out);
    } else {
      norm.SpMM(h, out);
    }
  };

  const int64_t fi = g.features.cols();
  const int64_t hid = config.hidden;
  const int64_t c = g.num_classes;
  // Per-layer weight sets: GCN 1, SAGE 2 (self+neighbor), Cheb 3 (orders).
  const int w_per_layer =
      kind == BaselineKind::kGcn ? 1 : (kind == BaselineKind::kSage ? 2 : 3);
  std::vector<nn::Linear> l1, l2;
  for (int w = 0; w < w_per_layer; ++w) {
    l1.emplace_back(fi, hid, Device::kAccel);
    l2.emplace_back(hid, c, Device::kAccel);
    l1.back().Init(&rng);
    l2.back().Init(&rng);
  }

  // Produces the per-weight input matrices of one layer: GCN [Ã h], SAGE
  // [h, Ã h], ChebNet order 2 [T0, T1, T2] = [h, Ã h, 2Ã T1 - T0].
  auto layer_inputs = [&](const Matrix& h, std::vector<Matrix>* inputs) {
    inputs->clear();
    if (kind != BaselineKind::kGcn) inputs->push_back(h);
    Matrix t1(h.rows(), h.cols(), Device::kAccel);
    propagate(h, &t1);
    inputs->push_back(std::move(t1));
    if (kind == BaselineKind::kChebNet) {
      Matrix t2(h.rows(), h.cols(), Device::kAccel);
      propagate(inputs->back(), &t2);
      ops::Scale(2.0f, &t2);
      ops::Axpy(-1.0f, h, &t2);
      inputs->push_back(std::move(t2));
    }
  };

  auto forward = [&](std::vector<Matrix>* in1, std::vector<Matrix>* in2,
                     Matrix* pre1, Matrix* logits) {
    layer_inputs(x, in1);
    Matrix z1(g.n, hid, Device::kAccel);
    Matrix tmp(g.n, hid, Device::kAccel);
    z1.Fill(0.0f);
    for (int w = 0; w < w_per_layer; ++w) {
      l1[static_cast<size_t>(w)].Forward((*in1)[static_cast<size_t>(w)], &tmp);
      ops::Axpy(1.0f, tmp, &z1);
    }
    *pre1 = z1;
    ops::ReluInPlace(&z1);
    layer_inputs(z1, in2);
    Matrix z2(g.n, c, Device::kAccel);
    Matrix tmp2(g.n, c, Device::kAccel);
    z2.Fill(0.0f);
    for (int w = 0; w < w_per_layer; ++w) {
      l2[static_cast<size_t>(w)].Forward((*in2)[static_cast<size_t>(w)],
                                         &tmp2);
      ops::Axpy(1.0f, tmp2, &z2);
    }
    *logits = std::move(z2);
  };

  // Gradient of one layer's inputs back to its pre-propagation activation:
  // propagation matrices are symmetric, so replay propagate on the
  // gradient. d/dh of [h, Ãh, 2Ã²h - h] is g0 + Ã g1 + 2Ã² g2 - g2.
  auto backward_inputs = [&](const std::vector<Matrix>& grads_in,
                             Matrix* grad_h) {
    if (kind == BaselineKind::kGcn) {
      propagate(grads_in[0], grad_h);
      return;
    }
    ops::Copy(grads_in[0], grad_h);
    Matrix p(grad_h->rows(), grad_h->cols(), Device::kAccel);
    propagate(grads_in[1], &p);
    ops::Axpy(1.0f, p, grad_h);
    if (kind == BaselineKind::kChebNet) {
      Matrix p2(grad_h->rows(), grad_h->cols(), Device::kAccel);
      propagate(grads_in[2], &p2);
      propagate(p2, &p);
      ops::Axpy(2.0f, p, grad_h);
      ops::Axpy(-1.0f, grads_in[2], grad_h);
    }
  };

  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    std::vector<Matrix> in1, in2;
    Matrix pre1, logits;
    forward(&in1, &in2, &pre1, &logits);
    EpochOutput out;
    out.grad = Matrix(logits.rows(), logits.cols(), Device::kAccel);
    out.loss =
        nn::SoftmaxCrossEntropy(logits, g.labels, splits.train, &out.grad);
    for (auto& l : l1) l.ZeroGrad();
    for (auto& l : l2) l.ZeroGrad();
    // Layer 2 backward.
    std::vector<Matrix> gin2;
    for (int w = 0; w < w_per_layer; ++w) {
      Matrix gi(g.n, hid, Device::kAccel);
      l2[static_cast<size_t>(w)].Backward(in2[static_cast<size_t>(w)],
                                          out.grad, &gi);
      gin2.push_back(std::move(gi));
    }
    Matrix grad_h1(g.n, hid, Device::kAccel);
    backward_inputs(gin2, &grad_h1);
    ops::ReluBackwardInPlace(pre1, &grad_h1);
    for (int w = 0; w < w_per_layer; ++w) {
      l1[static_cast<size_t>(w)].Backward(in1[static_cast<size_t>(w)],
                                          grad_h1, nullptr);
    }
    ++step;
    for (auto& l : l1) l.AdamStep(config.weights_opt, step);
    for (auto& l : l2) l.AdamStep(config.weights_opt, step);
    for (std::vector<Matrix>* v : {&in1, &in2, &gin2}) {
      for (Matrix& m : *v) out.live.push_back(std::move(m));
    }
    for (Matrix* m : {&pre1, &logits, &grad_h1}) {
      out.live.push_back(std::move(*m));
    }
    return out;
  };
  // Eval-mode logits; the layer inputs are dropped on return.
  auto predict = [&] {
    std::vector<Matrix> in1, in2;
    Matrix pre1, logits;
    forward(&in1, &in2, &pre1, &logits);
    return logits;
  };
  bodies.evaluate = [&] {
    const Matrix logits = predict();
    if (loop.NewBest(EvaluateMetric(metric, logits, g.labels, splits.val))) {
      result.test_metric =
          EvaluateMetric(metric, logits, g.labels, splits.test);
    }
  };
  bodies.infer = predict;
  loop.Run(bodies);
  return result;
}

/// NAGphormer-lite: SIGN-style hop-feature precompute, then a hop-token
/// attention readout trained on node batches.
TrainResult TrainNagphormer(const graph::Graph& g, const graph::Splits& splits,
                            graph::Metric metric, const TrainConfig& config) {
  TrainResult result;
  result.status = CheckBatching("NAGphormer", config, nullptr);
  if (!result.status.ok()) return result;
  EpochLoop loop(config, &result);
  Rng rng(config.seed * 0xD1342543DE82EF95ULL + 3);
  const int hops = 8;
  const int64_t fi = g.features.cols();
  const int64_t d = config.hidden;

  // Precompute hop features Ã^k X on the host (the long precompute column
  // of Table 6).
  sparse::CsrMatrix norm;
  std::vector<Matrix> hop_feats;
  loop.RunPrecompute([&] {
    norm = sparse::NormalizeAdjacency(g.adj, config.rho);
    hop_feats.push_back(g.features);
    for (int k = 1; k <= hops; ++k) {
      Matrix next(g.n, fi, Device::kHost);
      norm.SpMM(hop_feats.back(), &next);
      hop_feats.push_back(std::move(next));
    }
    return Status::OK();
  });

  nn::Linear proj(fi, d, Device::kAccel);
  proj.Init(&rng);
  nn::Parameter query(1, d, Device::kAccel);
  query.InitGlorot(&rng);
  nn::Mlp head(2, d, d, g.num_classes, config.dropout, Device::kAccel);
  head.Init(&rng);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));

  struct BatchCache {
    std::vector<Matrix> raw;      // gathered hop features (batch x fi)
    std::vector<Matrix> tokens;   // projected tokens (batch x d)
    Matrix attn;                  // batch x (hops+1) softmax weights
    Matrix z;                     // batch x d mixed token
  };

  auto forward_batch = [&](const std::vector<int32_t>& batch, bool train,
                           BatchCache* cache, Matrix* logits) {
    const auto b = static_cast<int64_t>(batch.size());
    cache->raw.clear();
    cache->tokens.clear();
    for (int k = 0; k <= hops; ++k) {
      Matrix raw = hop_feats[static_cast<size_t>(k)].GatherRows(batch);
      raw.MoveToDevice(Device::kAccel);
      Matrix tok(b, d, Device::kAccel);
      proj.Forward(raw, &tok);
      cache->raw.push_back(std::move(raw));
      cache->tokens.push_back(std::move(tok));
    }
    // Attention scores s_{ik} = <q, token_ik>/√d, softmax over k.
    cache->attn = Matrix(b, hops + 1, Device::kAccel);
    for (int k = 0; k <= hops; ++k) {
      const Matrix& tok = cache->tokens[static_cast<size_t>(k)];
      for (int64_t i = 0; i < b; ++i) {
        double s = 0.0;
        const float* trow = tok.row(i);
        for (int64_t j = 0; j < d; ++j) s += double(query.value().at(0, j)) * trow[j];
        cache->attn.at(i, k) = static_cast<float>(s * inv_sqrt_d);
      }
    }
    Matrix attn_soft(b, hops + 1, Device::kAccel);
    nn::Softmax(cache->attn, &attn_soft);
    cache->attn = attn_soft;
    cache->z = Matrix(b, d, Device::kAccel);
    for (int k = 0; k <= hops; ++k) {
      const Matrix& tok = cache->tokens[static_cast<size_t>(k)];
      for (int64_t i = 0; i < b; ++i) {
        const float a = cache->attn.at(i, k);
        float* zrow = cache->z.row(i);
        const float* trow = tok.row(i);
        for (int64_t j = 0; j < d; ++j) zrow[j] += a * trow[j];
      }
    }
    head.Forward(cache->z, logits, train, train ? &rng : nullptr);
  };

  auto backward_batch = [&](BatchCache* cache, const Matrix& grad_logits) {
    const int64_t b = cache->z.rows();
    proj.ZeroGrad();
    query.ZeroGrad();
    head.ZeroGrad();
    Matrix grad_z(b, d, Device::kAccel);
    head.Backward(grad_logits, &grad_z);
    // Through the attention mixture.
    std::vector<Matrix> grad_tok;
    for (int k = 0; k <= hops; ++k) grad_tok.emplace_back(b, d, Device::kAccel);
    for (int64_t i = 0; i < b; ++i) {
      // da_k = <grad_z_i, token_ik>; softmax chain; token and query grads.
      std::vector<double> da(static_cast<size_t>(hops) + 1);
      double dot = 0.0;
      for (int k = 0; k <= hops; ++k) {
        const float* trow = cache->tokens[static_cast<size_t>(k)].row(i);
        const float* grow = grad_z.row(i);
        double acc = 0.0;
        for (int64_t j = 0; j < d; ++j) acc += double(grow[j]) * trow[j];
        da[static_cast<size_t>(k)] = acc;
        dot += acc * cache->attn.at(i, k);
      }
      for (int k = 0; k <= hops; ++k) {
        const double a = cache->attn.at(i, k);
        const double ds = a * (da[static_cast<size_t>(k)] - dot) * inv_sqrt_d;
        float* gt = grad_tok[static_cast<size_t>(k)].row(i);
        const float* trow = cache->tokens[static_cast<size_t>(k)].row(i);
        const float* grow = grad_z.row(i);
        for (int64_t j = 0; j < d; ++j) {
          gt[j] = static_cast<float>(a * grow[j] +
                                     ds * query.value().at(0, j));
          query.grad().at(0, j) += static_cast<float>(ds * trow[j]);
        }
      }
    }
    for (int k = 0; k <= hops; ++k) {
      proj.Backward(cache->raw[static_cast<size_t>(k)],
                    grad_tok[static_cast<size_t>(k)], nullptr);
    }
  };

  Matrix all_logits(g.n, g.num_classes, Device::kHost);
  auto eval_rows = [&](const std::vector<int32_t>& rows) {
    ForEachBatch(rows, config.batch_size, [&](const auto& batch) {
      BatchCache cache;
      Matrix logits;
      forward_batch(batch, /*train=*/false, &cache, &logits);
      ScatterRows(logits, batch, &all_logits);
    });
  };

  std::vector<int32_t> train_idx = splits.train;
  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    EpochOutput out;
    Shuffle(&train_idx, &rng);
    ForEachBatch(train_idx, config.batch_size, [&](const auto& batch) {
      BatchCache cache;
      Matrix logits;
      forward_batch(batch, /*train=*/true, &cache, &logits);
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      out.loss = nn::SoftmaxCrossEntropy(logits, Gather(g.labels, batch),
                                         {}, &grad);
      backward_batch(&cache, grad);
      ++step;
      proj.AdamStep(config.weights_opt, step);
      query.AdamStep(config.weights_opt, step);
      head.AdamStep(config.weights_opt, step);
    });
    return out;
  };
  bodies.evaluate = [&] {
    eval_rows(splits.val);
    if (loop.NewBest(
            EvaluateMetric(metric, all_logits, g.labels, splits.val))) {
      eval_rows(splits.test);
      result.test_metric =
          EvaluateMetric(metric, all_logits, g.labels, splits.test);
    }
  };
  bodies.infer = [&] { eval_rows(splits.test); };
  loop.Run(bodies);
  return result;
}

/// ANS-GT-lite: per step, quadratic self-attention over a sampled node set
/// (straight-through on the attention weights; see DESIGN.md).
TrainResult TrainAnsGt(const graph::Graph& g, const graph::Splits& splits,
                       graph::Metric metric, const TrainConfig& config) {
  TrainResult result;
  EpochLoop loop(config, &result);
  Rng rng(config.seed * 0xB5297A4D68D9C175ULL + 5);
  const int64_t fi = g.features.cols();
  const int64_t d = config.hidden;
  const int64_t sample = std::min<int64_t>(512, g.n);

  nn::Linear wq(fi, d, Device::kAccel), wk(fi, d, Device::kAccel),
      wv(fi, d, Device::kAccel);
  wq.Init(&rng);
  wk.Init(&rng);
  wv.Init(&rng);
  nn::Mlp head(2, d, d, g.num_classes, config.dropout, Device::kAccel);
  head.Init(&rng);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));

  auto forward = [&](const std::vector<int32_t>& batch, bool train,
                     Matrix* xs_out, Matrix* attn_out, Matrix* v_out,
                     Matrix* logits) {
    Matrix xs = g.features.GatherRows(batch);
    xs.MoveToDevice(Device::kAccel);
    const int64_t b = xs.rows();
    Matrix q(b, d, Device::kAccel), k(b, d, Device::kAccel),
        v(b, d, Device::kAccel);
    wq.Forward(xs, &q);
    wk.Forward(xs, &k);
    wv.Forward(xs, &v);
    Matrix scores(b, b, Device::kAccel);
    ops::GemmTransB(q, k, &scores);
    ops::Scale(static_cast<float>(inv_sqrt_d), &scores);
    Matrix attn(b, b, Device::kAccel);
    nn::Softmax(scores, &attn);
    Matrix z(b, d, Device::kAccel);
    ops::Gemm(attn, v, &z);
    ops::Axpy(1.0f, v, &z);  // residual connection
    head.Forward(z, logits, train, train ? &rng : nullptr);
    *xs_out = std::move(xs);
    *attn_out = std::move(attn);
    *v_out = std::move(v);
  };

  // Scores `rows` in batches of `sample`, each its own attention context.
  auto eval_metric = [&](const std::vector<int32_t>& rows) {
    std::vector<int32_t> local(rows.size());
    std::iota(local.begin(), local.end(), 0);
    Matrix big(static_cast<int64_t>(rows.size()), g.num_classes,
               Device::kHost);
    ForEachBatch(local, sample, [&](const auto& ids) {
      Matrix xs, attn, v, logits;
      forward(Gather(rows, ids), /*train=*/false, &xs, &attn, &v, &logits);
      ScatterRows(logits, ids, &big);
    });
    return EvaluateMetric(metric, big, Gather(g.labels, rows), local);
  };

  const std::vector<int32_t>& train_idx = splits.train;
  int64_t step = 0;
  EpochBodies bodies;
  bodies.epoch = [&] {
    EpochOutput out;
    // Several adaptively-sampled attention steps per epoch (the model's
    // costly per-epoch loop in the paper's Table 6).
    for (int sub = 0; sub < 5; ++sub) {
      std::vector<int32_t> batch;
      for (int64_t i = 0; i < sample; ++i) {
        batch.push_back(train_idx[static_cast<size_t>(
            rng.UniformInt(static_cast<uint64_t>(train_idx.size())))]);
      }
      Matrix xs, attn, v, logits;
      forward(batch, /*train=*/true, &xs, &attn, &v, &logits);
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      out.loss = nn::SoftmaxCrossEntropy(logits, Gather(g.labels, batch),
                                         {}, &grad);
      wv.ZeroGrad();
      head.ZeroGrad();
      Matrix grad_z(v.rows(), d, Device::kAccel);
      head.Backward(grad, &grad_z);
      // Straight-through attention: dV = attnᵀ dZ + dZ (residual path).
      Matrix grad_v(v.rows(), d, Device::kAccel);
      ops::GemmTransA(attn, grad_z, &grad_v);
      ops::Axpy(1.0f, grad_z, &grad_v);
      wv.Backward(xs, grad_v, nullptr);
      ++step;
      wv.AdamStep(config.weights_opt, step);
      head.AdamStep(config.weights_opt, step);
    }
    return out;
  };
  bodies.evaluate = [&] {
    if (loop.NewBest(eval_metric(splits.val))) {
      result.test_metric = eval_metric(splits.test);
    }
  };
  bodies.infer = [&] {
    std::vector<int32_t> batch(splits.test.begin(),
                               splits.test.begin() +
                                   std::min<size_t>(splits.test.size(),
                                                    static_cast<size_t>(sample)));
    Matrix xs, attn, v, logits;
    forward(batch, /*train=*/false, &xs, &attn, &v, &logits);
  };
  loop.Run(bodies);
  return result;
}

}  // namespace

std::string BaselineLabel(BaselineKind kind, Backend backend) {
  std::string base;
  switch (kind) {
    case BaselineKind::kGcn: base = "GCN"; break;
    case BaselineKind::kSage: base = "GraphSAGE"; break;
    case BaselineKind::kChebNet: base = "ChebNet"; break;
    case BaselineKind::kNagphormer: return "NAGphormer-lite";
    case BaselineKind::kAnsGt: return "ANS-GT-lite";
  }
  return base + (backend == Backend::kSp ? " (SP)" : " (EI)");
}

TrainResult TrainBaseline(const graph::Graph& g, const graph::Splits& splits,
                          graph::Metric metric, BaselineKind kind,
                          Backend backend, const TrainConfig& config) {
  TrainResult result;
  result.status = CheckTrainConfig(BaselineLabel(kind, backend), config);
  if (!result.status.ok()) return result;
  switch (kind) {
    case BaselineKind::kNagphormer:
      return TrainNagphormer(g, splits, metric, config);
    case BaselineKind::kAnsGt:
      return TrainAnsGt(g, splits, metric, config);
    default:
      return TrainMessagePassing(g, splits, metric, kind, backend, config);
  }
}

}  // namespace sgnn::models

// Quantized serving sweep: accuracy drift, latency, and cache fit across
// filters x precision x calibration policy (docs/QUANTIZATION.md,
// "Quantization knobs" in docs/EXPERIMENTS.md).
//
// Trains one mini-batch model per filter, quantizes its frozen artifact at
// every (precision, calibration) point, and measures against two
// references:
//
//   * an in-bench fp64 oracle — the probed combine weights and the fp32 φ1
//     weights applied in double precision to the fp32 terms, so both fp32
//     serving and the quantized paths are scored against arithmetic strictly
//     better than either;
//   * fp32 serving itself — the task-metric (test accuracy) delta and the
//     cache-fit multiplier (resident graphs under the same byte budget).
//
// The bench fails (exit 1) when int8 bundles do not fit at least 3x more
// resident graphs than fp32 under the same cache budget, or when the logit
// MAE exceeds the documented drift bound for the precision — those are the
// two claims docs/QUANTIZATION.md makes, so they are enforced, not printed.
//
// Each (filter, precision, calibration) point journals one supervised cell
// with its drift/latency/fit extras, so an interrupted sweep resumes and
// the table reprints from the journal.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "eval/table.h"
#include "quant/kernels.h"
#include "quant/quantize.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"

namespace {

using namespace sgnn;

/// Double-precision oracle logits for `nodes`: probed combine weights and
/// the checkpoint's fp32 φ1 applied in double to the fp32 terms.
Result<std::vector<double>> OracleLogits(const serve::Checkpoint& ckpt,
                                         const std::vector<int64_t>& nodes) {
  SGNN_ASSIGN_OR_RETURN(
      auto filter, filters::CreateFilter(ckpt.filter_name, ckpt.hops, ckpt.hp,
                                         ckpt.feature_dim > 0
                                             ? ckpt.feature_dim
                                             : ckpt.phi1_in));
  if (!ckpt.theta.empty()) filter->params().Reset(ckpt.theta);
  // Bank filters size their term slicing on first Precompute; a 1-node
  // identity graph initializes it without touching the real terms.
  {
    filters::FilterContext ctx;
    sparse::CsrMatrix unit(1, {0, 1}, {0}, {1.0f}, Device::kHost);
    ctx.prop = &unit;
    ctx.device = Device::kHost;
    Matrix x1(1, ckpt.phi1_in, Device::kHost);
    x1.Fill(1.0f);
    std::vector<Matrix> warm;
    SGNN_RETURN_IF_ERROR(filter->Precompute(ctx, x1, &warm));
  }
  const auto num_terms = static_cast<int64_t>(ckpt.terms.size());
  const int64_t f = ckpt.phi1_in;
  Matrix cw;
  bool diagonal = false;
  SGNN_RETURN_IF_ERROR(quant::ProbeCombineWeights(filter.get(), num_terms, f,
                                                  &cw, &diagonal));
  if (!diagonal) {
    return Status::FailedPrecondition(
        "oracle: combine probe non-diagonal for " + ckpt.filter_name);
  }

  const int64_t classes = ckpt.phi1_out;
  std::vector<double> out;
  out.reserve(nodes.size() * static_cast<size_t>(classes));
  std::vector<double> h(static_cast<size_t>(f));
  for (const int64_t node : nodes) {
    for (int64_t c = 0; c < f; ++c) {
      double acc = 0.0;
      for (int64_t k = 0; k < num_terms; ++k) {
        acc += static_cast<double>(cw.at(k, c)) *
               static_cast<double>(
                   ckpt.terms[static_cast<size_t>(k)].at(node, c));
      }
      h[static_cast<size_t>(c)] = acc;
    }
    // φ1 in double: W then b per layer, ReLU between layers.
    std::vector<double> cur = h;
    const size_t layers = ckpt.phi1_weights.size() / 2;
    for (size_t l = 0; l < layers; ++l) {
      const Matrix& w = ckpt.phi1_weights[2 * l];
      const Matrix& b = ckpt.phi1_weights[2 * l + 1];
      std::vector<double> next(static_cast<size_t>(w.cols()));
      for (int64_t j = 0; j < w.cols(); ++j) {
        double acc = static_cast<double>(b.at(0, j));
        for (int64_t i = 0; i < w.rows(); ++i) {
          acc += cur[static_cast<size_t>(i)] *
                 static_cast<double>(w.at(i, j));
        }
        next[static_cast<size_t>(j)] = acc;
      }
      if (l + 1 < layers) {
        for (double& v : next) v = v > 0.0 ? v : 0.0;
      }
      cur = std::move(next);
    }
    out.insert(out.end(), cur.begin(), cur.end());
  }
  return out;
}

/// Serves `nodes` in closed-loop chunks of 64; returns the logits and
/// fills `qps`.
Result<Matrix> ServeAll(serve::Engine* engine,
                        const std::vector<int64_t>& nodes, double* qps) {
  Matrix logits(static_cast<int64_t>(nodes.size()), engine->num_classes(),
                Device::kHost);
  eval::Stopwatch sw;
  for (size_t start = 0; start < nodes.size(); start += 64) {
    const size_t end = std::min(nodes.size(), start + 64);
    const std::vector<int64_t> chunk(nodes.begin() +
                                         static_cast<int64_t>(start),
                                     nodes.begin() + static_cast<int64_t>(end));
    Matrix batch;
    SGNN_RETURN_IF_ERROR(engine->ServeBatch(chunk, &batch));
    std::memcpy(logits.row(static_cast<int64_t>(start)), batch.data(),
                batch.bytes());
  }
  const double ms = sw.ElapsedMs();
  *qps = ms > 0.0 ? static_cast<double>(nodes.size()) / (ms / 1e3) : 0.0;
  return logits;
}

double Accuracy(const Matrix& logits, const std::vector<int64_t>& nodes,
                const std::vector<int32_t>& labels) {
  int64_t hits = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    int64_t best = 0;
    for (int64_t c = 1; c < logits.cols(); ++c) {
      if (logits.at(static_cast<int64_t>(i), c) >
          logits.at(static_cast<int64_t>(i), best)) {
        best = c;
      }
    }
    if (best == labels[static_cast<size_t>(nodes[i])]) ++hits;
  }
  return nodes.empty() ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(nodes.size());
}

/// Mean |a - oracle| over all logits, plus the oracle's max magnitude
/// (drift bounds are relative to the logit scale).
void DriftVsOracle(const Matrix& logits, const std::vector<double>& oracle,
                   double* mae, double* scale) {
  double sum = 0.0;
  *scale = 0.0;
  for (int64_t i = 0; i < logits.size(); ++i) {
    const double o = oracle[static_cast<size_t>(i)];
    sum += std::fabs(static_cast<double>(logits.data()[i]) - o);
    *scale = std::max(*scale, std::fabs(o));
  }
  *mae = logits.size() > 0 ? sum / static_cast<double>(logits.size()) : 0.0;
}

/// Serves every node once (round-robin) and reports how many stayed
/// resident in the cache under the engine's budget.
Result<size_t> ResidentGraphs(serve::Engine* engine, int64_t n) {
  std::vector<int64_t> all;
  all.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) all.push_back(i);
  double qps = 0.0;
  SGNN_RETURN_IF_ERROR(ServeAll(engine, all, &qps).status());
  return engine->GetCacheUsage().entries;
}

struct PointResult {
  double mae = 0.0;
  double scale = 0.0;
  double acc = 0.0;
  double qps = 0.0;
  size_t resident = 0;
  size_t bundle_bytes = 0;
};

}  // namespace

int main() {
  using namespace sgnn;
  bench::Banner("Quantization",
                "Quantized serving sweep: logit drift vs an fp64 oracle, "
                "test-accuracy delta, closed-loop QPS, and resident graphs "
                "under a fixed cache budget, across filters x precision x "
                "calibration");

  const std::string dataset = "cora_sim";
  const std::vector<std::string> filter_names = {"chebyshev", "ppr",
                                                 "gnn_lf_hf"};
  runtime::Supervisor sup = bench::MakeSupervisor("quant");

  const auto spec = graph::FindDataset(dataset).value();
  graph::Graph g = graph::MakeDataset(spec, 1);
  graph::Splits splits = graph::RandomSplits(g.n, 1);
  std::vector<int64_t> eval_nodes;
  for (const int32_t v : splits.test) eval_nodes.push_back(v);

  // Sweep points. fp16 ignores calibration; int8 runs both policies.
  struct Point {
    const char* name;
    quant::Precision precision;
    quant::CalibPolicy policy;
  };
  const std::vector<Point> points = {
      {"fp16/-", quant::Precision::kFp16, quant::CalibPolicy::kAbsMax},
      {"int8/absmax", quant::Precision::kInt8, quant::CalibPolicy::kAbsMax},
      {"int8/p99.5", quant::Precision::kInt8, quant::CalibPolicy::kPercentile},
  };
  // Documented drift bounds relative to the oracle's logit scale
  // (docs/QUANTIZATION.md): fp16 within 0.2%, int8 within 4%.
  auto drift_bound = [](quant::Precision p) {
    return p == quant::Precision::kFp16 ? 2e-3 : 4e-2;
  };

  eval::Table table({"Filter", "Precision", "Bundle", "MAE", "fp32 MAE",
                     "Acc delta", "QPS", "vs fp32", "Resident", "Fit x"});
  bool fit_ok = true;
  bool drift_ok = true;

  for (const std::string& filter_name : filter_names) {
    // Train + export once per filter.
    models::TrainConfig cfg = bench::UniversalConfig(true);
    cfg.epochs = bench::FullMode() ? 35 : 10;
    cfg.export_model = true;
    auto filter_or =
        filters::CreateFilter(filter_name, bench::UniversalHops(), {},
                              g.features.cols());
    if (!filter_or.ok()) {
      std::fprintf(stderr, "%s\n", filter_or.status().ToString().c_str());
      return 1;
    }
    auto filter = filter_or.MoveValue();
    models::TrainResult tr =
        models::TrainMiniBatch(g, splits, spec.metric, filter.get(), cfg);
    if (!tr.status.ok() || tr.exported == nullptr) {
      std::fprintf(stderr, "training %s failed: %s\n", filter_name.c_str(),
                   tr.status.ToString().c_str());
      return 1;
    }
    serve::CheckpointMeta meta{dataset, g.n, g.num_classes, cfg.rho,
                               cfg.seed};
    auto ckpt_or = serve::BuildCheckpoint(filter_name, bench::UniversalHops(),
                                          {}, g.features.cols(), *tr.exported,
                                          meta);
    if (!ckpt_or.ok()) {
      std::fprintf(stderr, "%s\n", ckpt_or.status().ToString().c_str());
      return 1;
    }
    const serve::Checkpoint ckpt = ckpt_or.MoveValue();

    auto oracle_or = OracleLogits(ckpt, eval_nodes);
    if (!oracle_or.ok()) {
      std::fprintf(stderr, "%s\n", oracle_or.status().ToString().c_str());
      return 1;
    }
    const std::vector<double> oracle = oracle_or.MoveValue();

    // Cache budget: a quarter of the fp32 bundle total, so fp32 serving can
    // keep ~25% of the graph resident and the fit multiplier has headroom
    // to show.
    const size_t fp_bundle =
        ckpt.terms.size() * static_cast<size_t>(ckpt.phi1_in) * sizeof(float);
    const size_t budget = fp_bundle * static_cast<size_t>(g.n) / 4;
    serve::EngineConfig ecfg;
    ecfg.cache.accel_budget_bytes = budget;
    ecfg.cache.host_budget_bytes = 0;

    // fp32 reference point: drift, accuracy, throughput, residency.
    PointResult fp;
    {
      auto model_or = serve::RestoreModel(ckpt);
      if (!model_or.ok()) {
        std::fprintf(stderr, "%s\n", model_or.status().ToString().c_str());
        return 1;
      }
      serve::Engine engine(model_or.MoveValue(), ecfg);
      auto logits_or = ServeAll(&engine, eval_nodes, &fp.qps);
      if (!logits_or.ok()) {
        std::fprintf(stderr, "%s\n", logits_or.status().ToString().c_str());
        return 1;
      }
      DriftVsOracle(logits_or.value(), oracle, &fp.mae, &fp.scale);
      fp.acc = Accuracy(logits_or.value(), eval_nodes, g.labels);
      fp.bundle_bytes = fp_bundle;
      auto resident_or = ResidentGraphs(&engine, g.n);
      if (!resident_or.ok()) {
        std::fprintf(stderr, "%s\n",
                     resident_or.status().ToString().c_str());
        return 1;
      }
      fp.resident = resident_or.value();
    }
    table.AddRow({filter_name, "fp32/-", FormatBytes(fp.bundle_bytes),
                  eval::Fmt(fp.mae, 6), eval::Fmt(fp.mae, 6), "0.000",
                  eval::Fmt(fp.qps, 0), "1.00x", std::to_string(fp.resident),
                  "1.0x"});

    for (const Point& point : points) {
      quant::CalibConfig calib;
      calib.policy = point.policy;
      // Calibrate over a held-out sample of rows (the "query sample"), not
      // the full term matrices — the production posture.
      calib.sample_rows = std::max<int64_t>(64, g.n / 4);
      calib.seed = 0x51;

      const std::string variant =
          filter_name + "/" + point.name;
      runtime::CellKey key{dataset, filter_name, "quant", 1, variant};
      PointResult pr;
      const auto rec = sup.Run(
          key,
          [&]() -> models::TrainResult {
            models::TrainResult body;
            auto model_or =
                serve::RestoreModel(ckpt, point.precision, calib);
            if (!model_or.ok()) {
              body.status = model_or.status();
              return body;
            }
            serve::Engine engine(model_or.MoveValue(), ecfg);
            auto logits_or = ServeAll(&engine, eval_nodes, &pr.qps);
            if (!logits_or.ok()) {
              body.status = logits_or.status();
              return body;
            }
            DriftVsOracle(logits_or.value(), oracle, &pr.mae, &pr.scale);
            pr.acc = Accuracy(logits_or.value(), eval_nodes, g.labels);
            pr.bundle_bytes = ckpt.terms.size() *
                              static_cast<size_t>(ckpt.phi1_in) *
                              quant::ElemSize(point.precision);
            auto resident_or = ResidentGraphs(&engine, g.n);
            if (!resident_or.ok()) {
              body.status = resident_or.status();
              return body;
            }
            pr.resident = resident_or.value();
            body.stats.infer_ms = pr.qps > 0.0 ? 1e3 / pr.qps : 0.0;
            return body;
          },
          [&](const models::TrainResult&, runtime::CellRecord* r) {
            r->extras = {
                {"mae", pr.mae},
                {"fp_mae", fp.mae},
                {"logit_scale", pr.scale},
                {"acc", pr.acc},
                {"fp_acc", fp.acc},
                {"acc_delta", pr.acc - fp.acc},
                {"qps", pr.qps},
                {"fp_qps", fp.qps},
                {"resident", static_cast<double>(pr.resident)},
                {"fp_resident", static_cast<double>(fp.resident)},
                {"bundle_bytes", static_cast<double>(pr.bundle_bytes)},
            };
          });
      if (!rec.ok()) {
        table.AddRow({filter_name, point.name, "-", bench::StatusCell(rec),
                      "-", "-", "-", "-", "-", "-"});
        fit_ok = false;
        continue;
      }
      const double fitx =
          fp.resident > 0 ? static_cast<double>(pr.resident) /
                                static_cast<double>(fp.resident)
                          : 0.0;
      const double bound = drift_bound(point.precision) *
                           std::max(1.0, rec.Extra("logit_scale"));
      const bool point_drift_ok = rec.Extra("mae") <= bound;
      drift_ok = drift_ok && point_drift_ok;
      if (point.precision == quant::Precision::kInt8) {
        fit_ok = fit_ok && fitx >= 3.0;
      }
      table.AddRow(
          {filter_name, point.name, FormatBytes(pr.bundle_bytes),
           eval::Fmt(rec.Extra("mae"), 6), eval::Fmt(rec.Extra("fp_mae"), 6),
           eval::Fmt(rec.Extra("acc_delta"), 3),
           eval::Fmt(rec.Extra("qps"), 0),
           fp.qps > 0.0 ? eval::Fmt(rec.Extra("qps") / fp.qps, 2) + "x" : "-",
           std::to_string(pr.resident),
           eval::Fmt(fitx, 1) + "x" + (point_drift_ok ? "" : " DRIFT")});
    }
  }

  std::printf("\n");
  table.Print();
  if (!fit_ok) {
    std::fprintf(stderr,
                 "\nCACHE FIT VIOLATION: int8 bundles fit < 3x the fp32 "
                 "resident graphs under the same budget\n");
    return 1;
  }
  if (!drift_ok) {
    std::fprintf(stderr,
                 "\nDRIFT VIOLATION: logit MAE exceeded the documented "
                 "bound for some precision\n");
    return 1;
  }
  std::printf("\nint8 >= 3x resident graphs vs fp32, drift within "
              "documented bounds: yes\n");
  return 0;
}

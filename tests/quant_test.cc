// Tests for the quantized inference path: codec round-trip error bounds
// (per channel), exhaustive fp16 bit round-trip, calibration determinism
// under a fixed seed, typed rejection of precision-mismatched checkpoints
// (both directions), v2 round trips and fp drift under both calibration
// policies, quantized serving bit-stability (sync and async) at 1 and hw
// kernel threads in both consumption modes, and tiered-cache byte
// accounting with mixed-precision bundles.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "core/registry.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "models/trainer.h"
#include "nn/mlp.h"
#include "quant/kernels.h"
#include "quant/quantize.h"
#include "serve/cache.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace sgnn::quant {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols, Device::kHost);
  m.FillNormal(&rng);
  return m;
}

// --- fp16 codec --------------------------------------------------------------

TEST(F16Codec, ExhaustiveBitRoundTrip) {
  // Every binary16 is exactly representable as a float, so half -> float ->
  // half must be the identity for all 65536 bit patterns (NaNs keep their
  // quiet bit; we only require NaN -> NaN).
  for (uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = F16ToF32(h);
    const uint16_t back = F32ToF16(f);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(F16ToF32(back))) << "bits=" << bits;
    } else {
      EXPECT_EQ(back, h) << "bits=" << bits;
    }
  }
}

TEST(F16Codec, RelativeErrorWithinHalfUlp) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.Normal()) * 8.0f;
    const float back = F16ToF32(F32ToF16(v));
    // binary16 has 11 significand bits: round-to-nearest is within 2^-11
    // relative for normal values.
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * (1.0f / 2048.0f) + 1e-7f)
        << "v=" << v;
  }
}

// --- int8 round-trip bounds --------------------------------------------------

TEST(Int8Codec, PerChannelRoundTripWithinHalfStep) {
  const Matrix m = RandomMatrix(64, 12, 3);
  auto q_or = Quantize(m, Precision::kInt8, CalibConfig{});
  ASSERT_TRUE(q_or.ok()) << q_or.status().ToString();
  const QuantizedMatrix q = q_or.MoveValue();
  ASSERT_EQ(static_cast<int64_t>(q.scales().size()), m.cols());
  Matrix back(m.rows(), m.cols(), Device::kHost);
  Dequantize(q, &back);
  for (int64_t c = 0; c < m.cols(); ++c) {
    const float scale = q.scales()[static_cast<size_t>(c)];
    ASSERT_GT(scale, 0.0f);
    for (int64_t r = 0; r < m.rows(); ++r) {
      // Absmax calibration never clips: every value is within half a
      // quantization step of its reconstruction.
      EXPECT_LE(std::fabs(back.at(r, c) - m.at(r, c)), 0.5f * scale + 1e-7f)
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(Int8Codec, PercentileClipsOutlierNotChannel) {
  // One huge outlier in a channel of unit-scale values: absmax spends its
  // 254 steps on the outlier, percentile keeps resolution for the rest.
  Matrix m = RandomMatrix(256, 2, 5);
  m.at(0, 0) = 1000.0f;
  CalibConfig absmax;
  CalibConfig pct;
  pct.policy = CalibPolicy::kPercentile;
  pct.percentile = 99.0;
  const auto s_abs = CalibrateScales(m, absmax);
  const auto s_pct = CalibrateScales(m, pct);
  EXPECT_GT(s_abs[0], 5.0f);   // ~1000/127
  EXPECT_LT(s_pct[0], 0.5f);   // clipped to the bulk of the distribution
  // The untouched channel calibrates identically under both policies up to
  // the percentile's order-statistic choice.
  EXPECT_NEAR(s_abs[1], s_pct[1], s_abs[1] * 0.5f);
}

TEST(Int8Codec, QuantizeRejectsFp32) {
  const Matrix m = RandomMatrix(4, 4, 7);
  const auto q = Quantize(m, Precision::kFp32, CalibConfig{});
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

// --- calibration determinism -------------------------------------------------

TEST(Calibration, SampledScalesAreDeterministicUnderFixedSeed) {
  const Matrix m = RandomMatrix(512, 8, 11);
  CalibConfig calib;
  calib.policy = CalibPolicy::kPercentile;
  calib.percentile = 99.5;
  calib.sample_rows = 128;
  calib.seed = 0xBEEF;
  const auto a = CalibrateScales(m, calib);
  const auto b = CalibrateScales(m, calib);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  // A different seed samples different rows; with only a quarter of the
  // rows the percentile statistic should move for at least one channel.
  calib.seed = 0xBEEF + 1;
  const auto c = CalibrateScales(m, calib);
  EXPECT_NE(std::memcmp(a.data(), c.data(), a.size() * sizeof(float)), 0);
}

TEST(Calibration, QuantizePayloadBitIdenticalAcrossRuns) {
  const Matrix m = RandomMatrix(128, 6, 13);
  CalibConfig calib;
  calib.policy = CalibPolicy::kPercentile;
  calib.sample_rows = 64;
  auto a = Quantize(m, Precision::kInt8, calib);
  auto b = Quantize(m, Precision::kInt8, calib);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  EXPECT_EQ(std::memcmp(a.value().i8(), b.value().i8(),
                        static_cast<size_t>(a.value().size())),
            0);
}

// --- serving fixtures --------------------------------------------------------

serve::Checkpoint TrainCheckpoint(const std::string& filter_name) {
  graph::GeneratorConfig gc;
  gc.n = 200;
  gc.avg_degree = 6.0;
  gc.num_classes = 4;
  gc.homophily = 0.8;
  gc.feature_dim = 12;
  gc.noise = 2.0;
  gc.seed = 5;
  graph::Graph g = graph::GenerateSbm(gc);
  graph::Splits splits = graph::RandomSplits(g.n, 1);
  filters::FilterHyperParams hp;
  auto filter_or =
      filters::CreateFilter(filter_name, 6, hp, g.features.cols());
  EXPECT_TRUE(filter_or.ok()) << filter_or.status().ToString();
  auto filter = filter_or.MoveValue();

  models::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.eval_every = 2;
  cfg.hidden = 16;
  cfg.phi0_layers = 0;
  cfg.phi1_layers = 2;
  cfg.batch_size = 64;
  cfg.export_model = true;
  models::TrainResult tr = models::TrainMiniBatch(
      g, splits, graph::Metric::kAccuracy, filter.get(), cfg);
  EXPECT_TRUE(tr.status.ok()) << tr.status.ToString();

  serve::CheckpointMeta meta{"sbm_test", g.n, g.num_classes, cfg.rho,
                             cfg.seed};
  auto ckpt_or = serve::BuildCheckpoint(filter_name, 6, hp, g.features.cols(),
                                        *tr.exported, meta);
  EXPECT_TRUE(ckpt_or.ok()) << ckpt_or.status().ToString();
  return ckpt_or.MoveValue();
}

// --- typed precision rejection -----------------------------------------------

TEST(PrecisionRejection, QuantLoaderRejectsFpBytesAsFailedPrecondition) {
  const serve::Checkpoint ckpt = TrainCheckpoint("ppr");
  const std::string path = TempPath("fp_as_quant.ckpt");
  ASSERT_TRUE(serve::SaveCheckpoint(ckpt, path).ok());
  const auto r = serve::LoadQuantCheckpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(PrecisionRejection, FpLoaderRejectsQuantBytesAsFailedPrecondition) {
  const serve::Checkpoint ckpt = TrainCheckpoint("ppr");
  auto q_or = serve::QuantizeCheckpoint(ckpt, Precision::kInt8, CalibConfig{});
  ASSERT_TRUE(q_or.ok()) << q_or.status().ToString();
  const std::string path = TempPath("quant_as_fp.ckpt");
  ASSERT_TRUE(serve::SaveQuantCheckpoint(q_or.value(), path).ok());
  const auto r = serve::LoadCheckpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(PrecisionRejection, QuantizeCheckpointRejectsFp32Target) {
  const serve::Checkpoint ckpt = TrainCheckpoint("ppr");
  const auto q =
      serve::QuantizeCheckpoint(ckpt, Precision::kFp32, CalibConfig{});
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

// --- quantized checkpoint round-trip -----------------------------------------

/// The term calibrations each round trip runs under: the default absmax and
/// percentile over a held-out half of the rows. fp16 ignores both.
std::vector<CalibConfig> Calibrations(int64_t n) {
  CalibConfig percentile;
  percentile.policy = CalibPolicy::kPercentile;
  percentile.sample_rows = n / 2;
  return {CalibConfig{}, percentile};
}

class QuantRoundTrip : public testing::TestWithParam<Precision> {};

TEST_P(QuantRoundTrip, SaveLoadServeBitIdentical) {
  const serve::Checkpoint ckpt = TrainCheckpoint("chebyshev");
  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < ckpt.meta.n; i += 7) nodes.push_back(i);
  auto serve_with = [&nodes](const serve::QuantCheckpoint& qc) {
    auto model_or = serve::RestoreModel(qc);
    EXPECT_TRUE(model_or.ok()) << model_or.status().ToString();
    serve::Engine engine(model_or.MoveValue(), {});
    Matrix logits;
    EXPECT_TRUE(engine.ServeBatch(nodes, &logits).ok());
    return logits;
  };

  for (const CalibConfig& calib : Calibrations(ckpt.meta.n)) {
    SCOPED_TRACE(CalibPolicyName(calib.policy));
    auto q_or = serve::QuantizeCheckpoint(ckpt, GetParam(), calib);
    ASSERT_TRUE(q_or.ok()) << q_or.status().ToString();
    // One file per precision: ctest runs the parameters concurrently.
    const std::string path = TempPath(std::string("quant_rt_") +
                                      PrecisionName(GetParam()) + ".ckpt");
    ASSERT_TRUE(serve::SaveQuantCheckpoint(q_or.value(), path).ok());
    auto loaded_or = serve::LoadQuantCheckpoint(path);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    std::remove(path.c_str());
    EXPECT_EQ(loaded_or.value().calib.policy, calib.policy);

    const Matrix before = serve_with(q_or.value());
    const Matrix after = serve_with(loaded_or.value());
    ASSERT_EQ(before.rows(), after.rows());
    ASSERT_EQ(before.cols(), after.cols());
    EXPECT_EQ(std::memcmp(before.data(), after.data(), before.bytes()), 0);
  }
}

TEST_P(QuantRoundTrip, LogitsTrackFpServingWithinTolerance) {
  const serve::Checkpoint ckpt = TrainCheckpoint("ppr");
  auto fp_model = serve::RestoreModel(ckpt);
  ASSERT_TRUE(fp_model.ok());
  serve::Engine fp_engine(fp_model.MoveValue(), {});
  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < ckpt.meta.n; i += 3) nodes.push_back(i);
  Matrix fp_logits;
  ASSERT_TRUE(fp_engine.ServeBatch(nodes, &fp_logits).ok());

  for (const CalibConfig& calib : Calibrations(ckpt.meta.n)) {
    SCOPED_TRACE(CalibPolicyName(calib.policy));
    auto q_or = serve::QuantizeCheckpoint(ckpt, GetParam(), calib);
    ASSERT_TRUE(q_or.ok()) << q_or.status().ToString();
    // The terms carry the scales of the requested calibration.
    ASSERT_EQ(q_or.value().qterms.size(), ckpt.terms.size());
    if (GetParam() == Precision::kInt8) {
      for (size_t t = 0; t < ckpt.terms.size(); ++t) {
        EXPECT_EQ(q_or.value().qterms[t].scales(),
                  CalibrateScales(ckpt.terms[t], calib))
            << "term " << t;
      }
    }
    auto q_model = serve::RestoreModel(q_or.value());
    ASSERT_TRUE(q_model.ok()) << q_model.status().ToString();
    serve::Engine q_engine(q_model.MoveValue(), {});
    Matrix q_logits;
    ASSERT_TRUE(q_engine.ServeBatch(nodes, &q_logits).ok());
    double mae = 0.0;
    double scale = 0.0;
    for (int64_t r = 0; r < fp_logits.rows(); ++r) {
      for (int64_t c = 0; c < fp_logits.cols(); ++c) {
        mae += std::fabs(static_cast<double>(fp_logits.at(r, c)) -
                         static_cast<double>(q_logits.at(r, c)));
        scale = std::max(scale,
                         std::fabs(static_cast<double>(fp_logits.at(r, c))));
      }
    }
    mae /= static_cast<double>(fp_logits.size());
    // Documented drift bounds (docs/QUANTIZATION.md): relative to the logit
    // magnitude, fp16 stays within ~0.2%, int8 within ~4%.
    const double bound = GetParam() == Precision::kFp16 ? 2e-3 : 4e-2;
    EXPECT_LE(mae, bound * std::max(1.0, scale));
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, QuantRoundTrip,
                         testing::Values(Precision::kFp16, Precision::kInt8));

// --- quantized serving determinism -------------------------------------------

class QuantDeterminism
    : public testing::TestWithParam<serve::QuantExecMode> {};

TEST_P(QuantDeterminism, BatchedEqualsSingletonAcrossThreadCounts) {
  const serve::Checkpoint ckpt = TrainCheckpoint("gnn_lf_hf");
  auto q_or = serve::QuantizeCheckpoint(ckpt, Precision::kInt8, CalibConfig{});
  ASSERT_TRUE(q_or.ok()) << q_or.status().ToString();
  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < ckpt.meta.n; i += 5) nodes.push_back(i);

  serve::EngineConfig cfg;
  cfg.quant_exec = GetParam();

  const int hw = parallel::NumThreads();
  std::vector<int> counts = {1};
  if (hw > 1) counts.push_back(hw);
  Matrix reference;
  for (size_t ci = 0; ci < counts.size(); ++ci) {
    parallel::SetNumThreads(counts[ci]);
    auto model_or = serve::RestoreModel(q_or.value());
    ASSERT_TRUE(model_or.ok()) << model_or.status().ToString();
    serve::Engine engine(model_or.MoveValue(), cfg);
    EXPECT_EQ(engine.effective_quant_exec(), GetParam());
    Matrix batched;
    ASSERT_TRUE(engine.ServeBatch(nodes, &batched).ok());
    for (size_t i = 0; i < nodes.size(); ++i) {
      Matrix one;
      ASSERT_TRUE(engine.ServeBatch({nodes[i]}, &one).ok());
      EXPECT_EQ(std::memcmp(one.data(), batched.row(static_cast<int64_t>(i)),
                            one.bytes()),
                0)
          << "node " << nodes[i] << " at " << counts[ci] << " threads";
    }
    // The async path forms its own batches; each answer must still be the
    // synchronous row.
    engine.Start();
    std::vector<std::future<serve::QueryResult>> futures;
    for (const int64_t node : nodes) futures.push_back(engine.Submit(node));
    for (size_t i = 0; i < nodes.size(); ++i) {
      const serve::QueryResult r = futures[i].get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_EQ(static_cast<int64_t>(r.logits.size()), batched.cols());
      EXPECT_EQ(std::memcmp(r.logits.data(),
                            batched.row(static_cast<int64_t>(i)),
                            r.logits.size() * sizeof(float)),
                0)
          << "async node " << nodes[i] << " at " << counts[ci] << " threads";
    }
    engine.Stop();
    if (ci == 0) {
      reference = batched;
    } else {
      EXPECT_EQ(
          std::memcmp(reference.data(), batched.data(), reference.bytes()),
          0);
    }
  }
  parallel::SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(ExecModes, QuantDeterminism,
                         testing::Values(serve::QuantExecMode::kDequantOnLoad,
                                         serve::QuantExecMode::kQuantCompute));

// --- mixed-precision cache accounting ----------------------------------------

TEST(MixedPrecisionCache, QuantBytesTrackedSeparately) {
  // fp bundle: 4x8 floats = 128 B. int8 bundle: 4x8 bytes = 32 B
  // (scale-less, like the engine's per-node bundles).
  serve::CacheConfig cfg;
  cfg.accel_budget_bytes = 160;  // fits one fp + one int8 exactly
  cfg.host_budget_bytes = 128;
  serve::TieredCache cache(cfg);

  Matrix fp(4, 8, Device::kHost);
  fp.Fill(1.0f);
  cache.Put(1, serve::Bundle(std::move(fp)));
  QuantizedMatrix q8(Precision::kInt8, 4, 8, Device::kHost);
  cache.Put(2, serve::Bundle(std::move(q8)));

  EXPECT_EQ(cache.accel_bytes(), 160u);
  EXPECT_EQ(cache.accel_quant_bytes(), 32u);
  EXPECT_EQ(cache.host_bytes(), 0u);
  EXPECT_EQ(cache.host_quant_bytes(), 0u);

  // A second fp bundle overflows accel: LRU (the fp bundle, 128 B) demotes
  // to host; the quantized counter follows the quantized entry, not the
  // tier totals.
  Matrix fp2(4, 8, Device::kHost);
  fp2.Fill(2.0f);
  cache.Put(3, serve::Bundle(std::move(fp2)));
  EXPECT_EQ(cache.host_bytes(), 128u);
  EXPECT_EQ(cache.host_quant_bytes(), 0u);
  EXPECT_EQ(cache.accel_quant_bytes(), 32u);
  EXPECT_LE(cache.accel_bytes(), cfg.accel_budget_bytes);

  // Promote-on-hit keeps the split consistent when the quantized entry
  // moves between tiers.
  const serve::Bundle* b2 = cache.Get(2);
  ASSERT_NE(b2, nullptr);
  EXPECT_TRUE(b2->quantized());
  EXPECT_EQ(cache.accel_quant_bytes() + cache.host_quant_bytes(), 32u);

  cache.Clear();
  EXPECT_EQ(cache.accel_quant_bytes(), 0u);
  EXPECT_EQ(cache.host_quant_bytes(), 0u);
}

TEST(MixedPrecisionCache, EngineUsageReportsQuantSplit) {
  const serve::Checkpoint ckpt = TrainCheckpoint("ppr");
  auto q_or = serve::QuantizeCheckpoint(ckpt, Precision::kInt8, CalibConfig{});
  ASSERT_TRUE(q_or.ok());
  auto model_or = serve::RestoreModel(q_or.value());
  ASSERT_TRUE(model_or.ok());
  serve::EngineConfig cfg;
  cfg.cache.accel_budget_bytes = 1 << 20;
  cfg.cache.host_budget_bytes = 1 << 20;
  serve::Engine engine(model_or.MoveValue(), cfg);
  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < 40; ++i) nodes.push_back(i);
  Matrix logits;
  ASSERT_TRUE(engine.ServeBatch(nodes, &logits).ok());
  const serve::Engine::CacheUsage usage = engine.GetCacheUsage();
  EXPECT_GT(usage.entries, 0u);
  // A quantized model's cache holds only quantized bundles.
  EXPECT_EQ(usage.accel_quant_bytes + usage.host_quant_bytes,
            usage.accel_bytes + usage.host_bytes);
  EXPECT_GT(usage.accel_quant_bytes + usage.host_quant_bytes, 0u);
}

// --- quantized MLP kernels ---------------------------------------------------

TEST(QuantKernels, Int8GemmMatchesFpWithinStepBound) {
  const Matrix x = RandomMatrix(16, 8, 21);
  const Matrix w = RandomMatrix(8, 4, 22);
  auto qw_or = Quantize(w, Precision::kInt8, CalibConfig{});
  ASSERT_TRUE(qw_or.ok());
  Matrix ref(16, 4, Device::kHost);
  ops::Gemm(x, w, &ref);
  Matrix out(16, 4, Device::kHost);
  GemmInt8(x, qw_or.value(), &out);
  for (int64_t r = 0; r < ref.rows(); ++r) {
    for (int64_t c = 0; c < ref.cols(); ++c) {
      // Both operands quantize to ~1% relative error; the 8-term dot
      // product stays well under 0.2 absolute for unit-scale inputs.
      EXPECT_NEAR(out.at(r, c), ref.at(r, c), 0.2f) << r << "," << c;
    }
  }
}

TEST(QuantKernels, QuantizedMlpForwardDeterministicAcrossThreads) {
  nn::Mlp mlp(2, 8, 16, 4, /*dropout=*/0.0, Device::kHost);
  Rng rng(31);
  mlp.Init(&rng);
  auto qmlp_or = QuantizedMlp::FromMlp(mlp, Precision::kInt8);
  ASSERT_TRUE(qmlp_or.ok()) << qmlp_or.status().ToString();
  const QuantizedMlp& qmlp = qmlp_or.value();
  const Matrix x = RandomMatrix(32, 8, 33);

  parallel::SetNumThreads(1);
  Matrix y1(32, 4, Device::kHost);
  qmlp.ForwardInference(x, &y1);
  parallel::SetNumThreads(0);
  Matrix yhw(32, 4, Device::kHost);
  qmlp.ForwardInference(x, &yhw);
  ASSERT_EQ(y1.size(), yhw.size());
  EXPECT_EQ(std::memcmp(y1.data(), yhw.data(), y1.bytes()), 0);
}

}  // namespace
}  // namespace sgnn::quant

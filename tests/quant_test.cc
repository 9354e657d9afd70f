// Tests for the quantized inference path: codec round-trip error bounds
// (per channel), exhaustive fp16 bit round-trip, calibration determinism
// under a fixed seed, fp drift of quantized restores under both
// calibration policies, quantized serving bit-stability (sync and async)
// at 1 and hw kernel threads, the engine's cache bytes for quantized
// bundles, the combine-weight probe's verdict on non-diagonal combines,
// and the quantized MLP kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "models/trainer.h"
#include "nn/mlp.h"
#include "quant/kernels.h"
#include "quant/quantize.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "sparse/csr.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace sgnn::quant {
namespace {

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

// --- quantized restore drift -------------------------------------------------

/// The term calibrations each drift check runs under: the default absmax and
/// percentile over a held-out half of the rows. fp16 ignores both.
std::vector<CalibConfig> Calibrations(int64_t n) {
  CalibConfig percentile;
  percentile.policy = CalibPolicy::kPercentile;
  percentile.sample_rows = n / 2;
  return {CalibConfig{}, percentile};
}

class QuantRoundTrip : public testing::TestWithParam<Precision> {};

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
    SCOPED_TRACE(calib.policy == CalibPolicy::kAbsMax ? "absmax"
                                                      : "percentile");
    auto q_model = serve::RestoreModel(ckpt, GetParam(), calib);
    ASSERT_TRUE(q_model.ok()) << q_model.status().ToString();
    // The terms carry the scales of the requested calibration.
    const auto& qterms = q_model.value().qterms;
    ASSERT_EQ(qterms.size(), ckpt.terms.size());
    if (GetParam() == Precision::kInt8) {
      for (size_t t = 0; t < ckpt.terms.size(); ++t) {
        EXPECT_EQ(qterms[t].scales(), CalibrateScales(ckpt.terms[t], calib))
            << "term " << t;
      }
    }
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

TEST(QuantDeterminism, BatchedEqualsSingletonAcrossThreadCounts) {
  const serve::Checkpoint ckpt = TrainCheckpoint("gnn_lf_hf");
  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < ckpt.meta.n; i += 5) nodes.push_back(i);

  const int hw = parallel::NumThreads();
  std::vector<int> counts = {1};
  if (hw > 1) counts.push_back(hw);
  Matrix reference;
  for (size_t ci = 0; ci < counts.size(); ++ci) {
    parallel::SetNumThreads(counts[ci]);
    auto model_or = serve::RestoreModel(ckpt, Precision::kInt8);
    ASSERT_TRUE(model_or.ok()) << model_or.status().ToString();
    serve::Engine engine(model_or.MoveValue(), {});
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

// --- quantized cache accounting ----------------------------------------------

TEST(MixedPrecisionCache, EngineUsageReportsQuantSplit) {
  const serve::Checkpoint ckpt = TrainCheckpoint("ppr");
  auto model_or = serve::RestoreModel(ckpt, Precision::kInt8);
  ASSERT_TRUE(model_or.ok()) << model_or.status().ToString();
  serve::EngineConfig cfg;
  cfg.cache.accel_budget_bytes = 1 << 20;
  cfg.cache.host_budget_bytes = 1 << 20;
  serve::Engine engine(model_or.MoveValue(), cfg);
  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < 40; ++i) nodes.push_back(i);
  Matrix logits;
  ASSERT_TRUE(engine.ServeBatch(nodes, &logits).ok());
  const serve::Engine::CacheUsage usage = engine.GetCacheUsage();
  EXPECT_EQ(usage.entries, nodes.size());
  // A quantized model's cache holds only its scale-less int8 bundles: one
  // byte per term element, a quarter of the fp32 bundle.
  const size_t bundle_bytes =
      ckpt.terms.size() * static_cast<size_t>(ckpt.phi1_in);
  EXPECT_EQ(usage.accel_bytes + usage.host_bytes,
            usage.entries * bundle_bytes);
}

// --- combine-weight probe ----------------------------------------------------

/// A test-only decoupled filter whose CombineTerms is `combine`; every
/// other member is inert.
class CombineOnlyFilter : public filters::SpectralFilter {
 public:
  using Combine =
      std::function<void(const std::vector<const Matrix*>&, Matrix*)>;
  explicit CombineOnlyFilter(Combine combine) : combine_(std::move(combine)) {}

  const std::string& name() const override { return name_; }
  filters::FilterType type() const override {
    return filters::FilterType::kFixed;
  }
  void ResetParameters(Rng*) override {}
  void Forward(const filters::FilterContext&, const Matrix&, Matrix*,
               bool) override {}
  void Backward(const filters::FilterContext&, const Matrix&,
                Matrix*) override {}
  void ClearCache() override {}
  double Response(double) const override { return 0.0; }
  bool SupportsMiniBatch() const override { return true; }
  Status Precompute(const filters::FilterContext&, const Matrix&,
                    std::vector<Matrix>*) override {
    return Status::OK();
  }
  void CombineTerms(const std::vector<const Matrix*>& terms, Matrix* y,
                    bool) override {
    *y = Matrix(terms[0]->rows(), terms[0]->cols(), terms[0]->device());
    combine_(terms, y);
  }
  void BackwardCombine(const std::vector<const Matrix*>&,
                       const Matrix&) override {}
  nn::ScalarParams& params() override { return params_; }

 private:
  std::string name_ = "combine_only";
  Combine combine_;
  nn::ScalarParams params_;
};

bool ProbeSaysDiagonal(filters::SpectralFilter* filter, int64_t num_terms,
                       int64_t f) {
  Matrix cw;
  bool diagonal = false;
  EXPECT_TRUE(ProbeCombineWeights(filter, num_terms, f, &cw, &diagonal).ok());
  return diagonal;
}

TEST(CombineProbe, RejectsAffineAndChannelMixingCombines) {
  constexpr int64_t kTerms = 3;
  constexpr int64_t kF = 6;
  // Sum of the terms plus 1: maps the zero bundle off zero.
  CombineOnlyFilter affine(
      [](const std::vector<const Matrix*>& terms, Matrix* y) {
        for (int64_t c = 0; c < y->cols(); ++c) {
          float sum = 1.0f;
          for (const Matrix* t : terms) sum += t->at(0, c);
          y->at(0, c) = sum;
        }
      });
  EXPECT_FALSE(ProbeSaysDiagonal(&affine, kTerms, kF));

  // Sum of the terms, each output channel read from the next input channel:
  // linear, and passes the unit probes, but not channel-diagonal.
  CombineOnlyFilter mixing(
      [](const std::vector<const Matrix*>& terms, Matrix* y) {
        const int64_t f = y->cols();
        for (int64_t c = 0; c < f; ++c) {
          float sum = 0.0f;
          for (const Matrix* t : terms) sum += t->at(0, (c + 1) % f);
          y->at(0, c) = sum;
        }
      });
  EXPECT_FALSE(ProbeSaysDiagonal(&mixing, kTerms, kF));

  // A registered filter passes once its warm-up Precompute has run.
  auto cheb_or = filters::CreateFilter("chebyshev", kTerms - 1, {}, kF);
  ASSERT_TRUE(cheb_or.ok()) << cheb_or.status().ToString();
  auto cheb = cheb_or.MoveValue();
  sparse::CsrMatrix unit(1, {0, 1}, {0}, {1.0f}, Device::kHost);
  std::vector<Matrix> warm;
  ASSERT_TRUE(cheb->Precompute(filters::FilterContext{&unit, Device::kHost},
                               Matrix(1, kF, Device::kHost), &warm)
                  .ok());
  ASSERT_EQ(static_cast<int64_t>(warm.size()), kTerms);
  EXPECT_TRUE(ProbeSaysDiagonal(cheb.get(), kTerms, kF));
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

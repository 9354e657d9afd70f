// Tests for the serving subsystem: checkpoint round-trips across filter
// families, typed rejection of corrupt/old/hand-edited files and of
// inconsistent in-memory images at every precision, batched-vs-
// singleton bit-identity at 1 and hw kernel threads, tiered-cache LRU and
// byte accounting against the DeviceTracker, and the no-grad φ1 inference
// forward's memory contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "models/trainer.h"
#include "nn/mlp.h"
#include "serve/cache.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "tensor/device.h"
#include "tensor/parallel.h"
#include "tensor/serialize.h"

namespace sgnn::serve {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

graph::Graph SmallGraph() {
  graph::GeneratorConfig c;
  c.n = 200;
  c.avg_degree = 6.0;
  c.num_classes = 4;
  c.homophily = 0.8;
  c.feature_dim = 12;
  c.noise = 2.0;
  c.seed = 5;
  return graph::GenerateSbm(c);
}

/// Trains a small mini-batch model for `filter_name` and builds its
/// checkpoint. Asserts out the whole test on any failure.
Checkpoint TrainCheckpoint(const std::string& filter_name, int hops = 6) {
  graph::Graph g = SmallGraph();
  graph::Splits splits = graph::RandomSplits(g.n, 1);
  filters::FilterHyperParams hp;
  auto filter_or = filters::CreateFilter(filter_name, hops, hp,
                                         g.features.cols());
  EXPECT_TRUE(filter_or.ok()) << filter_or.status().ToString();
  auto filter = filter_or.MoveValue();
  EXPECT_TRUE(filter->SupportsMiniBatch()) << filter_name;

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
  EXPECT_NE(tr.exported, nullptr);

  CheckpointMeta meta{"sbm_test", g.n, g.num_classes, cfg.rho, cfg.seed};
  auto ckpt_or = BuildCheckpoint(filter_name, hops, hp, g.features.cols(),
                                 *tr.exported, meta);
  EXPECT_TRUE(ckpt_or.ok()) << ckpt_or.status().ToString();
  return ckpt_or.MoveValue();
}

/// Serves `nodes` in one batch through a freshly restored engine.
Matrix ServeOnce(const Checkpoint& ckpt, const std::vector<int64_t>& nodes,
                 EngineConfig cfg = {}) {
  auto model_or = RestoreModel(ckpt);
  EXPECT_TRUE(model_or.ok()) << model_or.status().ToString();
  Engine engine(model_or.MoveValue(), cfg);
  Matrix logits;
  const Status s = engine.ServeBatch(nodes, &logits);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return logits;
}

// --- checkpoint round-trip ---------------------------------------------------

class CheckpointFamilies : public testing::TestWithParam<const char*> {};

TEST_P(CheckpointFamilies, SaveLoadServeBitIdentical) {
  const Checkpoint built = TrainCheckpoint(GetParam());
  const std::string path = TempPath(std::string("rt_") + GetParam() + ".ckpt");
  ASSERT_TRUE(SaveCheckpoint(built, path).ok());
  auto loaded_or = LoadCheckpoint(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const Checkpoint loaded = loaded_or.MoveValue();

  EXPECT_EQ(loaded.filter_name, built.filter_name);
  EXPECT_EQ(loaded.theta, built.theta);  // f64 on the wire: exact
  ASSERT_EQ(loaded.terms.size(), built.terms.size());
  for (size_t k = 0; k < built.terms.size(); ++k) {
    ASSERT_EQ(loaded.terms[k].size(), built.terms[k].size());
    EXPECT_EQ(std::memcmp(loaded.terms[k].data(), built.terms[k].data(),
                          built.terms[k].bytes()),
              0);
  }

  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < built.meta.n; i += 7) nodes.push_back(i);
  const Matrix before = ServeOnce(built, nodes);
  const Matrix after = ServeOnce(loaded, nodes);
  ASSERT_EQ(before.rows(), after.rows());
  ASSERT_EQ(before.cols(), after.cols());
  EXPECT_EQ(std::memcmp(before.data(), after.data(), before.bytes()), 0);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(FilterFamilies, CheckpointFamilies,
                         testing::Values("ppr",        // fixed
                                         "chebyshev",  // variable polynomial
                                         "gnn_lf_hf"   // filter bank
                                         ));

// --- typed rejection ---------------------------------------------------------

class CheckpointRejection : public testing::Test {
 protected:
  void SetUp() override {
    ckpt_ = TrainCheckpoint("ppr");
    // One file per test: ctest runs these cases as concurrent processes.
    const testing::TestInfo* info =
        testing::UnitTest::GetInstance()->current_test_info();
    path_ = TempPath(std::string("reject_") + info->name() + ".ckpt");
    ASSERT_TRUE(SaveCheckpoint(ckpt_, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadAll() {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  void WriteAll(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Checkpoint ckpt_;
  std::string path_;
};

/// Restores `image` at fp32, int8 and fp16: each must fail with `code`.
void ExpectRejectedAtEveryPrecision(const Checkpoint& image, StatusCode code) {
  for (const quant::Precision p :
       {quant::Precision::kFp32, quant::Precision::kInt8,
        quant::Precision::kFp16}) {
    const auto m = RestoreModel(image, p);
    ASSERT_FALSE(m.ok()) << quant::PrecisionName(p);
    EXPECT_EQ(m.status().code(), code)
        << quant::PrecisionName(p) << ": " << m.status().ToString();
  }
}

TEST_F(CheckpointRejection, TruncatedFileIsIOError) {
  const std::string bytes = ReadAll();
  WriteAll(bytes.substr(0, bytes.size() / 2));
  const auto r = LoadCheckpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
}

TEST_F(CheckpointRejection, CorruptPayloadByteIsIOError) {
  std::string bytes = ReadAll();
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  WriteAll(bytes);
  const auto r = LoadCheckpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
}

TEST_F(CheckpointRejection, WrongVersionIsFailedPrecondition) {
  std::string bytes = ReadAll();
  // The u32 version sits right after the 8-byte magic (little-endian).
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);
  WriteAll(bytes);
  const auto r = LoadCheckpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
}

TEST_F(CheckpointRejection, NonZeroFlagsIsIOError) {
  const std::string clean = ReadAll();
  // The u32 flags follow the version; the CRC covers only the payload, so
  // the frame still verifies and the checkpoint reader must refuse it.
  for (const char flags : {1, 2}) {
    std::string bytes = clean;
    bytes[12] = flags;
    WriteAll(bytes);
    const auto r = LoadCheckpoint(path_);
    ASSERT_FALSE(r.ok()) << "flags " << int{flags};
    EXPECT_EQ(r.status().code(), StatusCode::kIOError)
        << r.status().ToString();
  }
}

TEST_F(CheckpointRejection, WrongMagicIsIOError) {
  std::string bytes = ReadAll();
  bytes[0] = 'X';
  WriteAll(bytes);
  const auto r = LoadCheckpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
}

TEST_F(CheckpointRejection, InflatedTermShapeIsIOErrorNotAbort) {
  // A tiny v1 file with a valid CRC whose one term claims 40000 x 40000
  // floats (6.4 GB): the loader must reject the shape against the bytes
  // left before allocating the matrix.
  serialize::Writer p;
  p.PutStr("ppr");
  p.PutI32(6);
  for (int i = 0; i < 6; ++i) p.PutF64(0.1);  // α, α₂, β, β₂, jacobi a/b
  p.PutI64(0);                                // feature_dim
  p.PutU32(0);                                // θ count
  p.PutI32(1);                                // φ1 layers
  p.PutI64(12);                               // φ1 in
  p.PutI64(12);                               // φ1 hidden
  p.PutI64(4);                                // φ1 out
  p.PutF64(0.0);                              // dropout
  p.PutU32(2);                                // W and b, both 0 x 0
  for (int i = 0; i < 4; ++i) p.PutI64(0);
  p.PutU32(1);                                // one term ...
  p.PutI64(40000);                            // ... of 40000 rows
  p.PutI64(40000);                            // ... x 40000 cols, no data
  ASSERT_TRUE(serialize::WriteFramedFile(path_, "SGNNCKPT",
                                         kCheckpointVersion, 0, p)
                  .ok());
  const auto r = LoadCheckpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
}

TEST_F(CheckpointRejection, HandEditedAlphaZeroIsInvalidArgument) {
  // A hand editor re-packing the file keeps the CRC consistent — the Save
  // API writes whatever it is given, so fabricating the file through it is
  // equivalent. α=0 must fail the PR-4 CreateFilter validation at load,
  // not surface as NaN logits at query time.
  Checkpoint bad = ckpt_;
  bad.hp.alpha = 0.0;
  ASSERT_TRUE(SaveCheckpoint(bad, path_).ok());
  const auto r = LoadCheckpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  // RestoreModel from an in-memory hand-edited image hits the same wall.
  ExpectRejectedAtEveryPrecision(bad, StatusCode::kInvalidArgument);
}

TEST_F(CheckpointRejection, ThetaCountMismatchRejected) {
  Checkpoint bad = ckpt_;
  bad.theta.push_back(0.25);  // ppr is fixed: must stay empty
  ExpectRejectedAtEveryPrecision(bad, StatusCode::kIOError);
}

TEST_F(CheckpointRejection, TermRowCountMismatchRejected) {
  Checkpoint bad = ckpt_;
  ++bad.meta.n;  // every term now has one row fewer than the meta claims
  ExpectRejectedAtEveryPrecision(bad, StatusCode::kIOError);
}

// --- engine determinism ------------------------------------------------------

TEST(EngineDeterminism, BatchedEqualsSingletonAcrossThreadCounts) {
  const Checkpoint ckpt = TrainCheckpoint("chebyshev");
  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < ckpt.meta.n; i += 3) nodes.push_back(i);

  const int hw = parallel::NumThreads();
  std::vector<int> counts = {1};
  if (hw > 1) counts.push_back(hw);
  Matrix reference;
  for (size_t ci = 0; ci < counts.size(); ++ci) {
    parallel::SetNumThreads(counts[ci]);
    auto model_or = RestoreModel(ckpt);
    ASSERT_TRUE(model_or.ok());
    Engine engine(model_or.MoveValue(), {});
    Matrix batched;
    ASSERT_TRUE(engine.ServeBatch(nodes, &batched).ok());
    for (size_t i = 0; i < nodes.size(); ++i) {
      Matrix one;
      ASSERT_TRUE(engine.ServeBatch({nodes[i]}, &one).ok());
      ASSERT_EQ(one.cols(), batched.cols());
      EXPECT_EQ(std::memcmp(one.data(), batched.row(static_cast<int64_t>(i)),
                            one.bytes()),
                0)
          << "node " << nodes[i] << " at " << counts[ci] << " threads";
    }
    // And across thread counts: kernels are deterministic per-row.
    if (ci == 0) {
      reference = batched;
    } else {
      EXPECT_EQ(
          std::memcmp(reference.data(), batched.data(), reference.bytes()),
          0);
    }
  }
  parallel::SetNumThreads(0);  // restore env/hardware default
}

TEST(EngineDeterminism, AsyncSubmitMatchesSyncServe) {
  const Checkpoint ckpt = TrainCheckpoint("ppr");
  auto model_or = RestoreModel(ckpt);
  ASSERT_TRUE(model_or.ok());
  EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ms = 0.2;
  cfg.cache.accel_budget_bytes = 64 * 1024;
  cfg.cache.host_budget_bytes = 64 * 1024;
  Engine engine(model_or.MoveValue(), cfg);
  engine.Start();
  std::vector<int64_t> nodes;
  for (int i = 0; i < 120; ++i) {
    nodes.push_back((i * 37) % ckpt.meta.n);
  }
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(nodes.size());
  for (const int64_t node : nodes) futures.push_back(engine.Submit(node));
  std::vector<QueryResult> results;
  results.reserve(nodes.size());
  for (auto& fut : futures) results.push_back(fut.get());
  engine.Stop();

  for (size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    Matrix one;
    ASSERT_TRUE(engine.ServeBatch({nodes[i]}, &one).ok());
    ASSERT_EQ(static_cast<int64_t>(results[i].logits.size()), one.cols());
    EXPECT_EQ(std::memcmp(results[i].logits.data(), one.data(), one.bytes()),
              0);
  }
  EXPECT_EQ(engine.queries_served(), 2 * nodes.size());
  EXPECT_GE(engine.GetLatency().count(), nodes.size());
}

TEST(Engine, RejectsOutOfRangeAndNotRunning) {
  const Checkpoint ckpt = TrainCheckpoint("ppr");
  auto model_or = RestoreModel(ckpt);
  ASSERT_TRUE(model_or.ok());
  Engine engine(model_or.MoveValue(), {});
  Matrix logits;
  const Status bad = engine.ServeBatch({ckpt.meta.n}, &logits);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  // Submit before Start fails immediately with FailedPrecondition.
  QueryResult r = engine.Submit(0).get();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  // Out-of-range Submit fails without needing the dispatcher.
  engine.Start();
  QueryResult oob = engine.Submit(-1).get();
  engine.Stop();
  ASSERT_FALSE(oob.status.ok());
  EXPECT_EQ(oob.status.code(), StatusCode::kInvalidArgument);
}

// --- tiered cache ------------------------------------------------------------

Bundle MakeBundle(int64_t terms, int64_t f, float fill) {
  Matrix m(terms, f, Device::kHost);
  m.Fill(fill);
  return Bundle(std::move(m));
}

TEST(TieredCache, LruDemotionEvictionAndCounters) {
  // Bundles are 4x8 floats = 128 bytes. Accel holds 2, host holds 1.
  CacheConfig cfg;
  cfg.accel_budget_bytes = 256;
  cfg.host_budget_bytes = 128;
  const size_t accel_before = DeviceTracker::Global().live_bytes(
      Device::kAccel);
  auto cache_owner = std::make_unique<TieredCache>(cfg);
  TieredCache& cache = *cache_owner;

  EXPECT_EQ(cache.Get(1), nullptr);  // miss on empty
  cache.Put(1, MakeBundle(4, 8, 1.0f));
  cache.Put(2, MakeBundle(4, 8, 2.0f));
  EXPECT_EQ(cache.accel_bytes(), 256u);
  // The cache's own budget accounting must agree with the global tracker.
  EXPECT_EQ(DeviceTracker::Global().live_bytes(Device::kAccel),
            accel_before + cache.accel_bytes());

  // Third insert overflows accel: LRU (node 1) demotes to host.
  cache.Put(3, MakeBundle(4, 8, 3.0f));
  EXPECT_EQ(cache.stats().demotions, 1u);
  EXPECT_EQ(cache.accel_bytes(), 256u);
  EXPECT_EQ(cache.host_bytes(), 128u);
  EXPECT_EQ(DeviceTracker::Global().live_bytes(Device::kAccel),
            accel_before + cache.accel_bytes());

  // Accel hits: 2 and 3 resident; host hit on 1 promotes it back,
  // demoting the new LRU (2) to host.
  const Bundle* b3 = cache.Get(3);
  ASSERT_NE(b3, nullptr);
  EXPECT_EQ(b3->fp.at(0, 0), 3.0f);
  EXPECT_EQ(cache.stats().accel_hits, 1u);
  const Bundle* b1 = cache.Get(1);
  ASSERT_NE(b1, nullptr);
  EXPECT_EQ(b1->fp.at(0, 0), 1.0f);
  EXPECT_EQ(b1->fp.device(), Device::kAccel);
  EXPECT_EQ(cache.stats().host_hits, 1u);
  EXPECT_EQ(cache.stats().demotions, 2u);
  EXPECT_EQ(cache.entries(), 3u);

  // Fourth distinct insert: accel LRU demotes, host overflows, eviction.
  cache.Put(4, MakeBundle(4, 8, 4.0f));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_LE(cache.accel_bytes(), cfg.accel_budget_bytes);
  EXPECT_LE(cache.host_bytes(), cfg.host_budget_bytes);
  EXPECT_EQ(DeviceTracker::Global().live_bytes(Device::kAccel),
            accel_before + cache.accel_bytes());

  EXPECT_GT(cache.stats().HitRate(), 0.0);
  // Destroying the cache frees every bundle it still holds.
  cache_owner.reset();
  EXPECT_EQ(DeviceTracker::Global().live_bytes(Device::kAccel), accel_before);
}

TEST(TieredCache, OversizedBundlesSkipTiers) {
  CacheConfig cfg;
  cfg.accel_budget_bytes = 64;   // bundle (128 B) can never pin
  cfg.host_budget_bytes = 128;   // but fits on host
  TieredCache cache(cfg);
  cache.Put(1, MakeBundle(4, 8, 1.0f));
  EXPECT_EQ(cache.accel_bytes(), 0u);
  EXPECT_EQ(cache.host_bytes(), 128u);
  const Bundle* b = cache.Get(1);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->fp.device(), Device::kHost);  // too big to promote

  // No tier can hold it at all: dropped, counted as eviction.
  TieredCache tiny(CacheConfig{64, 64});
  tiny.Put(1, MakeBundle(4, 8, 1.0f));
  EXPECT_EQ(tiny.entries(), 0u);
  EXPECT_EQ(tiny.stats().evictions, 1u);
  EXPECT_EQ(tiny.Get(1), nullptr);
}

TEST(TieredCache, ZeroBudgetsDisableCaching) {
  TieredCache cache(CacheConfig{});
  cache.Put(1, MakeBundle(2, 2, 1.0f));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// --- engine + cache integration ---------------------------------------------

TEST(EngineCache, RepeatQueriesHitAndStayIdentical) {
  const Checkpoint ckpt = TrainCheckpoint("ppr");
  auto model_or = RestoreModel(ckpt);
  ASSERT_TRUE(model_or.ok());
  EngineConfig cfg;
  cfg.cache.accel_budget_bytes = 1 << 20;
  cfg.cache.host_budget_bytes = 1 << 20;
  Engine engine(model_or.MoveValue(), cfg);
  const std::vector<int64_t> nodes = {0, 5, 9, 5, 0, 9, 5};
  Matrix cold;
  ASSERT_TRUE(engine.ServeBatch(nodes, &cold).ok());
  Matrix warm;
  ASSERT_TRUE(engine.ServeBatch(nodes, &warm).ok());
  const CacheStats stats = engine.GetCacheStats();
  EXPECT_EQ(stats.misses, 3u);  // only the three distinct cold gathers
  EXPECT_GT(stats.accel_hits, 0u);
  EXPECT_EQ(std::memcmp(cold.data(), warm.data(), cold.bytes()), 0);
}

// --- φ1 no-grad inference forward (satellite S1) -----------------------------

TEST(MlpInference, MatchesEvalForwardBitwise) {
  Rng rng(11);
  nn::Mlp mlp(3, 32, 48, 8, /*dropout=*/0.4, Device::kAccel);
  mlp.Init(&rng);
  Matrix x(64, 32, Device::kAccel);
  x.FillNormal(&rng);
  Matrix eval_out;
  mlp.Forward(x, &eval_out, /*train=*/false, nullptr);
  Matrix infer_out;
  mlp.ForwardInference(x, &infer_out);
  ASSERT_EQ(eval_out.size(), infer_out.size());
  EXPECT_EQ(std::memcmp(eval_out.data(), infer_out.data(), eval_out.bytes()),
            0);
}

TEST(MlpInference, PeakAccelMemoryBelowTrainingForward) {
  Rng rng(11);
  const int64_t n = 512, fin = 128, hidden = 256, classes = 16;
  nn::Mlp mlp(3, fin, hidden, classes, /*dropout=*/0.3, Device::kAccel);
  mlp.Init(&rng);
  Matrix x(n, fin, Device::kAccel);
  x.FillNormal(&rng);
  auto& tracker = DeviceTracker::Global();

  // Inference first, against a cache-free module: its peak is the two live
  // layer activations. The training forward then retains per-layer
  // input/pre-activation/mask caches on top of the same transients.
  tracker.ResetPeak();
  Matrix infer_out;
  mlp.ForwardInference(x, &infer_out);
  const size_t infer_peak = tracker.peak_bytes(Device::kAccel);

  tracker.ResetPeak();
  Matrix train_out;
  mlp.Forward(x, &train_out, /*train=*/true, &rng);
  const size_t train_peak = tracker.peak_bytes(Device::kAccel);

  EXPECT_LT(infer_peak, train_peak)
      << "inference peak " << infer_peak << " vs training " << train_peak;
}

// --- latency histogram -------------------------------------------------------

TEST(LatencyHistogram, PercentilesBracketSamples) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  // Bucket bounds over-estimate by at most the 1.35 bucket ratio.
  EXPECT_GE(h.PercentileMs(50), 50.0);
  EXPECT_LE(h.PercentileMs(50), 50.0 * 1.35);
  EXPECT_GE(h.PercentileMs(99), 99.0);
  EXPECT_LE(h.PercentileMs(99), 100.0 * 1.35);
  EXPECT_EQ(h.max_ms(), 100.0);
  EXPECT_NEAR(h.MeanMs(), 50.5, 1e-9);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileMs(99), 0.0);

  // One sample: its bucket's upper bound (1e-3 * 1.35^25 ~ 1.813 ms) lies
  // above the sample, so the percentile clamps to the recorded maximum.
  h.Record(1.715);
  EXPECT_EQ(h.PercentileMs(50), h.max_ms());
  EXPECT_EQ(h.PercentileMs(99), h.max_ms());
}

// --- serialization primitives ------------------------------------------------

TEST(Serialize, ReaderRejectsOverrun) {
  serialize::Writer w;
  w.PutU32(7);
  serialize::Reader r(w.buffer().data(), w.size());
  uint32_t v = 0;
  ASSERT_TRUE(r.U32(&v).ok());
  EXPECT_EQ(v, 7u);
  uint64_t big = 0;
  const Status s = r.U64(&big);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(Serialize, Crc32KnownVector) {
  // CRC-32 (reflected, 0xEDB88320) of "123456789" is 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(serialize::Crc32(s, 9), 0xCBF43926u);
}

}  // namespace
}  // namespace sgnn::serve

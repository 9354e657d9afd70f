// Golden digests: the bit-level spec of every filter and of every training
// scheme, pinned as CRC-32 values of raw float (and double) bits.
//
// A refactor that keeps behaviour keeps these digests; a change that moves
// one bit anywhere in a filter's forward, backward, precompute or combine
// path, or in a short training run of any scheme, fails here naming the
// filter or scheme and the stage and printing the actual value. The runs
// of the schemes other than FB and MB also pin their peak host and
// accelerator bytes. The checkpoint file one fixed MB model saves is
// pinned byte for byte, with the logits it serves after loading back and
// those its in-memory int8 and fp16 images serve. Each of the 22 datasets
// at seed 1 is pinned by its adjacency arrays, feature bits, labels and
// splits. The dense oracle (conformance/oracle.cc) stays the numerical
// reference; this table is the bit reference across builds and refactors.
// The expected values are edited by hand when a change is meant to move
// bits, and that change says so.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "conformance/fuzz.h"
#include "core/registry.h"
#include "graph/datasets.h"
#include "graph/generator.h"
#include "models/baselines.h"
#include "models/iterative.h"
#include "models/linkpred.h"
#include "models/partition.h"
#include "models/trainer.h"
#include "quant/quantize.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "shard/plan.h"
#include "shard/spmm.h"
#include "sparse/adjacency.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"

namespace sgnn {
namespace {

constexpr int kHops = 10;
constexpr int64_t kFeatures = 4;

/// Incremental CRC-32 over raw value bits.
class Digest {
 public:
  Digest& Add(const Matrix& m) {
    crc_ = serialize::Crc32(m.data(), m.bytes(), crc_);
    return *this;
  }
  template <typename T>
  Digest& Add(const std::vector<T>& v) {
    crc_ = serialize::Crc32(v.data(), v.size() * sizeof(T), crc_);
    return *this;
  }
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols, Device::kHost);
  Rng rng(seed);
  m.FillNormal(&rng);
  return m;
}

/// One fixture graph: normalized propagation matrix plus its input signal
/// and the upstream gradient fed to the backward passes.
struct Fixture {
  std::string family;
  sparse::CsrMatrix prop;
  Matrix x;
  Matrix grad_y;
};

/// The first CaseFromSeed graph of each of three families: a random graph,
/// a two-block SBM, and a graph with zero-degree rows and no self loops.
const std::vector<Fixture>& Fixtures() {
  static const std::vector<Fixture>* fixtures = [] {
    auto* out = new std::vector<Fixture>;
    for (const char* family : {"er", "sbm", "isolated"}) {
      for (uint64_t seed = 1;; ++seed) {
        const conformance::FuzzCase c = conformance::CaseFromSeed(seed);
        if (c.family != family) continue;
        auto adj = sparse::BuildAdjacency(c.n, c.edges, c.self_loops);
        SGNN_CHECK(adj.ok(), "golden fixture adjacency must build");
        Fixture f;
        f.family = family;
        f.prop = sparse::NormalizeAdjacency(adj.value(), c.rho);
        f.x = RandomMatrix(c.n, kFeatures, seed * 31 + 1);
        f.grad_y = RandomMatrix(c.n, kFeatures, seed * 31 + 2);
        out->push_back(std::move(f));
        break;
      }
    }
    return out;
  }();
  return *fixtures;
}

std::unique_ptr<filters::SpectralFilter> Make(const std::string& name,
                                              uint64_t seed) {
  auto f = filters::CreateFilter(name, kHops, {}, kFeatures);
  SGNN_CHECK(f.ok(), "golden filter must build");
  auto filter = f.MoveValue();
  Rng rng(seed);
  filter->ResetParameters(&rng);
  return filter;
}

/// Per-filter digests, each chained over the three fixtures in order.
struct FilterDigests {
  uint32_t forward = 0;     ///< Forward(cache=false) output
  uint32_t backward = 0;    ///< grad_x, then params().grads()
  uint32_t precompute = 0;  ///< every Precompute term (0 = FB-only filter)
  uint32_t combine = 0;     ///< CombineTerms output, then BackwardCombine grads
};

FilterDigests Compute(const std::string& name) {
  Digest forward, backward, precompute, combine;
  bool mini_batch = false;
  for (size_t i = 0; i < Fixtures().size(); ++i) {
    const Fixture& fx = Fixtures()[i];
    filters::FilterContext ctx;
    ctx.prop = &fx.prop;
    ctx.device = Device::kHost;

    auto filter = Make(name, 100 + i);
    Matrix y;
    filter->Forward(ctx, fx.x, &y, /*cache=*/false);
    forward.Add(y);

    filter = Make(name, 200 + i);
    Matrix y_cached, grad_x;
    filter->Forward(ctx, fx.x, &y_cached, /*cache=*/true);
    filter->params().ZeroGrad();
    filter->Backward(ctx, fx.grad_y, &grad_x);
    backward.Add(grad_x).Add(filter->params().grads());

    filter = Make(name, 300 + i);
    mini_batch = filter->SupportsMiniBatch();
    if (!mini_batch) continue;
    std::vector<Matrix> terms;
    const Status st = filter->Precompute(ctx, fx.x, &terms);
    SGNN_CHECK(st.ok(), "golden precompute must succeed");
    for (const Matrix& t : terms) precompute.Add(t);

    // A fixed row subset: every other row, last to first.
    std::vector<int32_t> rows;
    for (int64_t r = fx.x.rows() - 1; r >= 0; r -= 2) {
      rows.push_back(static_cast<int32_t>(r));
    }
    std::vector<Matrix> hold;
    for (const Matrix& t : terms) hold.push_back(t.GatherRows(rows));
    std::vector<const Matrix*> ptrs;
    for (const Matrix& h : hold) ptrs.push_back(&h);
    Matrix yb;
    filter->CombineTerms(ptrs, &yb, /*cache=*/true);
    filter->params().ZeroGrad();
    filter->BackwardCombine(ptrs, fx.grad_y.GatherRows(rows));
    combine.Add(yb).Add(filter->params().grads());
  }
  FilterDigests d;
  d.forward = forward.value();
  d.backward = backward.value();
  d.precompute = mini_batch ? precompute.value() : 0;
  d.combine = mini_batch ? combine.value() : 0;
  return d;
}

struct FilterGolden {
  const char* name;
  FilterDigests want;
};

// clang-format off
const FilterGolden kFilterGolden[] = {
    {"identity",     {0x73b7f1ed, 0x2acc034a, 0x73b7f1ed, 0x72084428}},
    {"linear",       {0x4aceb1f1, 0xf00f6d88, 0x4aceb1f1, 0x31dab0e4}},
    {"impulse",      {0x35a47984, 0xfdf88d4e, 0x35a47984, 0xe1248b83}},
    {"monomial",     {0x19d62dc9, 0x65abaec6, 0x19d62dc9, 0xdc5348a0}},
    {"ppr",          {0xbdefd8b9, 0x703696a4, 0xbdefd8b9, 0xe4330871}},
    {"hk",           {0xf11bd8f8, 0xb73bbb0f, 0xf11bd8f8, 0x2d0010d2}},
    {"gaussian",     {0xd5307463, 0xdc4a6523, 0xd5307463, 0x15e49279}},
    {"var_linear",   {0x45b0c3e0, 0xb0bed2fc, 0x4f2bf1ff, 0xf5b5eeeb}},
    {"var_monomial", {0x408813fe, 0x85aad8e2, 0x4f2bf1ff, 0x302101cb}},
    {"horner",       {0xfe2dfc2a, 0x51b006c3, 0x4f2bf1ff, 0xacf3f665}},
    {"chebyshev",    {0x9fcc09d9, 0x94b4a561, 0x292e1562, 0xc4de284d}},
    {"chebinterp",   {0x56d1c022, 0x831f2c91, 0x292e1562, 0xa523e1d1}},
    {"clenshaw",     {0xd8681025, 0x84ca4020, 0xa17246fa, 0xc518be80}},
    {"bernstein",    {0xcc7997dd, 0x67cc539c, 0xc33b5bcc, 0x079103cb}},
    {"legendre",     {0x54d4e33f, 0x299f746d, 0x6798265d, 0xeffee2b8}},
    {"jacobi",       {0x1cea1e2e, 0x513fdf11, 0x540b91f1, 0xdcb32e80}},
    {"favard",       {0x0e188d17, 0xf5669e15, 0x00000000, 0x00000000}},
    {"optbasis",     {0x832da613, 0x80add6ff, 0xabf194b1, 0x91196ad4}},
    {"adagnn",       {0x791b0319, 0xa53b12a0, 0x00000000, 0x00000000}},
    {"fbgnn1",       {0x08ecb79c, 0x43216346, 0x00000000, 0x00000000}},
    {"fbgnn2",       {0x18f32a9d, 0xbb2a5c3d, 0x00000000, 0x00000000}},
    {"acmgnn1",      {0xe9ab701c, 0x4a74f6df, 0x00000000, 0x00000000}},
    {"acmgnn2",      {0xb847940a, 0xa0609464, 0x00000000, 0x00000000}},
    {"fagnn",        {0x6c91c852, 0x8986dcd7, 0xd4f253ad, 0x8ae6c29b}},
    {"g2cn",         {0x6cf63741, 0xea460c3a, 0xe3fbfc10, 0x2f868478}},
    {"gnn_lf_hf",    {0x21400553, 0xd3524f9a, 0x83883bc7, 0x557dbd54}},
    {"figure",       {0xe76267c5, 0x9d4f4f50, 0x42bec72f, 0xd97d962e}},
};
// clang-format on

TEST(Golden, EveryFilterStageMatchesPinnedDigests) {
  ASSERT_EQ(Fixtures().size(), 3u);
  const std::vector<std::string> names = filters::AllFilterNames();
  ASSERT_EQ(names.size(), std::size(kFilterGolden));
  for (size_t i = 0; i < names.size(); ++i) {
    const FilterGolden& g = kFilterGolden[i];
    ASSERT_EQ(names[i], g.name) << "golden table out of Table 1 order";
    const FilterDigests got = Compute(names[i]);
    const auto check = [&](const char* stage, uint32_t want, uint32_t have) {
      EXPECT_EQ(have, want) << names[i] << "/" << stage << ": actual "
                            << Hex(have) << ", pinned " << Hex(want);
    };
    check("forward", g.want.forward, got.forward);
    check("backward", g.want.backward, got.backward);
    check("precompute", g.want.precompute, got.precompute);
    check("combine", g.want.combine, got.combine);
  }
}

// --- feature widths and shards -----------------------------------------------

/// The sbm fixture's graph.
const sparse::CsrMatrix& SbmProp() {
  const Fixture& f = Fixtures()[1];
  SGNN_CHECK(f.family == "sbm", "golden fixture 1 must be the sbm graph");
  return f.prop;
}

/// Digest of chebyshev's Forward output (when `forward`), then of every
/// Precompute term for x in emission order.
uint32_t ChebyshevDigest(const filters::FilterContext& ctx, const Matrix& x,
                         bool forward) {
  auto f = filters::CreateFilter("chebyshev", kHops, {}, x.cols());
  SGNN_CHECK(f.ok(), "golden chebyshev must build");
  auto filter = f.MoveValue();
  Rng rng(400);
  filter->ResetParameters(&rng);
  Digest d;
  if (forward) {
    Matrix y;
    filter->Forward(ctx, x, &y, /*cache=*/false);
    d.Add(y);
  }
  std::vector<Matrix> terms;
  SGNN_CHECK(filter->Precompute(ctx, x, &terms).ok(),
             "golden precompute must succeed");
  for (const Matrix& t : terms) d.Add(t);
  return d.value();
}

/// The filter stages above run at F = 4 only. These widths cover a fallback
/// width (12) and the widths products_sim's MB run (32) and FB's default
/// hidden layer (64) propagate at.
struct WidthGolden {
  int64_t features;
  uint32_t precompute;
};

// clang-format off
const WidthGolden kWidthGolden[] = {
    {12, 0x8ee25a9c},
    {32, 0x7819f2c4},
    {64, 0x2ed580cf},
};
// clang-format on

TEST(Golden, ChebyshevPrecomputeAtEachWidthMatchesPinnedDigests) {
  filters::FilterContext ctx;
  ctx.prop = &SbmProp();
  for (const WidthGolden& want : kWidthGolden) {
    const Matrix x = RandomMatrix(SbmProp().n(), want.features,
                                  static_cast<uint64_t>(want.features));
    const uint32_t got = ChebyshevDigest(ctx, x, /*forward=*/false);
    EXPECT_EQ(got, want.precompute)
        << "F=" << want.features << ": actual " << Hex(got) << ", pinned "
        << Hex(want.precompute);
  }
}

/// chebyshev Forward and Precompute at F = 32 on the sbm graph.
constexpr uint32_t kShardedChebyshevGolden = 0xc9466c6a;

TEST(Golden, FourShardChebyshevMatchesUnshardedAndPinnedDigest) {
  const Matrix x = RandomMatrix(SbmProp().n(), 32, 404);
  filters::FilterContext ctx;
  ctx.prop = &SbmProp();
  const uint32_t unsharded = ChebyshevDigest(ctx, x, /*forward=*/true);

  const shard::ShardPlan plan =
      shard::BuildShardPlan(SbmProp(), shard::PartitionOptions{4, 7});
  const shard::ShardedSpmmOperator op(&plan);
  ctx.op = &op;
  const uint32_t sharded = ChebyshevDigest(ctx, x, /*forward=*/true);
  EXPECT_EQ(op.stats().applies, 2 * kHops);
  EXPECT_EQ(sharded, unsharded) << "sharded " << Hex(sharded)
                                << ", unsharded " << Hex(unsharded);
  EXPECT_EQ(sharded, kShardedChebyshevGolden)
      << "actual " << Hex(sharded) << ", pinned "
      << Hex(kShardedChebyshevGolden);
}

// --- training ----------------------------------------------------------------

const graph::Graph& TrainGraph() {
  static const graph::Graph* g = [] {
    graph::GeneratorConfig c;
    c.n = 240;
    c.avg_degree = 6.0;
    c.num_classes = 3;
    c.homophily = 0.8;
    c.feature_dim = 8;
    c.noise = 1.5;
    c.seed = 17;
    return new graph::Graph(graph::GenerateSbm(c));
  }();
  return *g;
}

/// The graph above has 8 features and 3 classes and its runs train at
/// hidden 16. This one has 32 features and 32 classes, and its runs train
/// at hidden 64, so every φ0/φ1 GEMM runs at the widths products_sim's MB
/// epoch does (m = 32 and 64).
const graph::Graph& WideTrainGraph() {
  static const graph::Graph* g = [] {
    graph::GeneratorConfig c;
    c.n = 640;
    c.avg_degree = 6.0;
    c.num_classes = 32;
    c.homophily = 0.8;
    c.feature_dim = 32;
    c.noise = 1.5;
    c.seed = 19;
    return new graph::Graph(graph::GenerateSbm(c));
  }();
  return *g;
}

models::TrainConfig TrainCfg(bool mb, int hidden = 16) {
  models::TrainConfig c;
  c.epochs = 5;
  c.eval_every = 5;
  c.hidden = hidden;
  c.batch_size = 64;
  c.seed = 3;
  if (mb) {
    c.phi0_layers = 0;
    c.phi1_layers = 2;
  }
  return c;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct TrainGolden {
  const char* name;
  uint64_t fb_loss_bits;
  uint32_t fb_logits;
  uint64_t mb_loss_bits;
  uint32_t mb_logits;
};

// clang-format off
const TrainGolden kTrainGolden[] = {
    {"chebyshev", 0x3fed5fabf3924117ull, 0xc74a7e5b, 0x3ff1aa775effd4f2ull, 0xedee960b},
    {"bernstein", 0x3fef57194b60e991ull, 0x5f58991a, 0x3ff0cc8438df65cbull, 0x336bf1eb},
    {"gnn_lf_hf", 0x3ff2a88827028370ull, 0x7acf8a0c, 0x3ff0fd703d5ac990ull, 0xf6fde41d},
    {"figure",    0x3ff18cab6d4b8561ull, 0xe9b7493a, 0x3ff1921396dcc22aull, 0xf19dcfcb},
    {"optbasis",  0x3fe1292cf9341dd5ull, 0x8534f610, 0x3fe601792d633ed1ull, 0x762187e3},
};
// clang-format on

/// Trains `want.name` for five epochs on `g`, FB then MB, and checks the
/// final loss bits and the test-logit digest of each run.
void ExpectTrainingMatches(const graph::Graph& g, const TrainGolden& want,
                           int hidden) {
  const graph::Splits s = graph::RandomSplits(g.n, 4);
  for (const bool mb : {false, true}) {
    auto f = filters::CreateFilter(want.name, kHops, {}, g.features.cols());
    ASSERT_TRUE(f.ok()) << want.name;
    auto filter = f.MoveValue();
    const models::TrainResult r =
        mb ? models::TrainMiniBatch(g, s, graph::Metric::kAccuracy,
                                    filter.get(), TrainCfg(true, hidden))
           : models::TrainFullBatch(g, s, graph::Metric::kAccuracy,
                                    filter.get(), TrainCfg(false, hidden));
    ASSERT_TRUE(r.status.ok()) << want.name << ": " << r.status.ToString();
    const char* scheme = mb ? "mb" : "fb";
    const uint64_t loss = Bits(r.final_train_loss);
    const uint64_t want_loss = mb ? want.mb_loss_bits : want.fb_loss_bits;
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(loss));
    EXPECT_EQ(loss, want_loss)
        << want.name << "/" << scheme << "_loss: actual " << buf;
    const uint32_t logits = Digest().Add(r.test_logits).value();
    EXPECT_EQ(logits, mb ? want.mb_logits : want.fb_logits)
        << want.name << "/" << scheme << "_logits: actual " << Hex(logits);
  }
}

TEST(Golden, FiveEpochTrainingMatchesPinnedDigests) {
  for (const TrainGolden& want : kTrainGolden) {
    ExpectTrainingMatches(TrainGraph(), want, /*hidden=*/16);
  }
}

/// chebyshev on WideTrainGraph at hidden 64.
constexpr TrainGolden kWideTrainGolden = {
    "chebyshev", 0x40092bf901273c55ull, 0xc9ce3e26, 0x3fe70b6110f8d482ull,
    0xba017cb0};

TEST(Golden, FiveEpochTrainingAtMbWidthsMatchesPinnedDigests) {
  ExpectTrainingMatches(WideTrainGraph(), kWideTrainGolden, /*hidden=*/64);
}

// --- the other training schemes ----------------------------------------------

/// Six epochs with an eval round every second one, so the best-validation
/// capture runs three times.
models::TrainConfig SchemeCfg() {
  models::TrainConfig c = TrainCfg(false);
  c.epochs = 6;
  c.eval_every = 2;
  return c;
}

/// One scheme's short run on TrainGraph().
models::TrainResult RunScheme(const std::string& scheme) {
  const graph::Graph& g = TrainGraph();
  const graph::Splits s = graph::RandomSplits(g.n, 4);
  const models::TrainConfig cfg = SchemeCfg();
  auto filter = [&](const char* name) {
    auto f = filters::CreateFilter(name, kHops, {}, g.features.cols());
    SGNN_CHECK(f.ok(), "golden scheme filter must build");
    return f.MoveValue();
  };
  const std::pair<const char*, std::pair<models::BaselineKind,
                                         models::Backend>>
      baselines[] = {
          {"gcn_sp", {models::BaselineKind::kGcn, models::Backend::kSp}},
          {"gcn_ei", {models::BaselineKind::kGcn, models::Backend::kEi}},
          {"sage_sp", {models::BaselineKind::kSage, models::Backend::kSp}},
          {"chebnet_ei",
           {models::BaselineKind::kChebNet, models::Backend::kEi}},
          {"nagphormer",
           {models::BaselineKind::kNagphormer, models::Backend::kSp}},
          {"ansgt", {models::BaselineKind::kAnsGt, models::Backend::kSp}},
      };
  for (const auto& [name, kind] : baselines) {
    if (scheme == name) {
      return models::TrainBaseline(g, s, graph::Metric::kAccuracy, kind.first,
                                   kind.second, cfg);
    }
  }
  if (scheme == "gp_ppr") {
    models::PartitionConfig p;
    p.base = cfg;
    p.num_parts = 4;
    auto f = filter("ppr");
    return models::TrainGraphPartition(g, s, graph::Metric::kAccuracy, f.get(),
                                       p);
  }
  if (scheme == "iterative_linear") {
    models::IterativeConfig it;
    it.base = cfg;
    it.layers = 2;
    it.layer_filter = "linear";
    return models::TrainIterative(g, s, graph::Metric::kAccuracy, it);
  }
  SGNN_CHECK(scheme == "linkpred_ppr", "unknown golden scheme");
  models::LinkPredConfig lp;
  lp.base = cfg;
  auto f = filter("ppr");
  return models::TrainLinkPrediction(g, f.get(), lp);
}

struct SchemeGolden {
  const char* scheme;
  uint64_t loss_bits;   ///< not checked for linkpred_ppr (see below)
  uint64_t val_bits;
  uint64_t test_bits;
  uint32_t logits;      ///< CRC of test_logits; 0 where a scheme keeps none
  size_t host_bytes;    ///< peak host bytes above those live at the call
  size_t accel_bytes;   ///< the same for the accelerator
};

// Link prediction reported no training loss when this table was pinned, so
// its loss column is not part of the spec.
// clang-format off
const SchemeGolden kSchemeGolden[] = {
    {"gcn_sp",           0x3ff0d37a6ebfc9acull, 0x3fe3555555555555ull, 0x3fe6000000000000ull, 0x00000000, 14056, 174616},
    {"gcn_ei",           0x3ff0d37a6ebfc9acull, 0x3fe3555555555555ull, 0x3fe6000000000000ull, 0x00000000, 14056, 284072},
    {"sage_sp",          0x3fee35ae693f986aull, 0x3fe3555555555555ull, 0x3fe4000000000000ull, 0x00000000, 14056, 239176},
    {"chebnet_ei",       0x3ff1395ae0dac0f4ull, 0x3fe2aaaaaaaaaaabull, 0x3fd5555555555555ull, 0x00000000, 14056, 413192},
    {"nagphormer",       0x3feb08e3c7f70585ull, 0x3fecaaaaaaaaaaabull, 0x3fecaaaaaaaaaaabull, 0x00000000, 88104, 128880},
    {"ansgt",            0x3fe1ba7836869355ull, 0x3fe9555555555555ull, 0x3fea000000000000ull, 0x00000000, 7680, 621680},
    {"gp_ppr",           0x3fead735bb39b8ffull, 0x3fe8aaaaaaaaaaabull, 0x3fe6000000000000ull, 0x4b4197a4, 6896, 42576},
    {"iterative_linear", 0x3ff062067707c9aaull, 0x3fe1555555555555ull, 0x3fe4000000000000ull, 0x7f0675d7, 14056, 120856},
    {"linkpred_ppr",     0x0000000000000000ull, 0x0000000000000000ull, 0x3fe9f11cae466068ull, 0x00000000, 37096, 26480},
};
// clang-format on

std::string Hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Golden, EverySchemeMatchesPinnedDigests) {
  auto& tracker = DeviceTracker::Global();
  TrainGraph();  // built once, before the live-byte baselines are read
  for (const SchemeGolden& want : kSchemeGolden) {
    const size_t host0 = tracker.live_bytes(Device::kHost);
    const size_t accel0 = tracker.live_bytes(Device::kAccel);
    const models::TrainResult r = RunScheme(want.scheme);
    ASSERT_TRUE(r.status.ok() && !r.oom)
        << want.scheme << ": " << r.status.ToString();
    const SchemeGolden got = {
        want.scheme,
        Bits(r.final_train_loss),
        Bits(r.val_metric),
        Bits(r.test_metric),
        Digest().Add(r.test_logits).value(),
        r.stats.peak_ram_bytes - host0,
        r.stats.peak_accel_bytes - accel0};
    const std::string actual =
        std::string("actual {\"") + want.scheme + "\", " +
        Hex64(got.loss_bits) + "ull, " + Hex64(got.val_bits) + "ull, " +
        Hex64(got.test_bits) + "ull, " + Hex(got.logits) + ", " +
        std::to_string(got.host_bytes) + ", " +
        std::to_string(got.accel_bytes) + "}";
    if (std::string(want.scheme) != "linkpred_ppr") {
      EXPECT_EQ(got.loss_bits, want.loss_bits) << actual;
    }
    EXPECT_EQ(got.val_bits, want.val_bits) << actual;
    EXPECT_EQ(got.test_bits, want.test_bits) << actual;
    EXPECT_EQ(got.logits, want.logits) << actual;
    EXPECT_EQ(got.host_bytes, want.host_bytes) << actual;
    EXPECT_EQ(got.accel_bytes, want.accel_bytes) << actual;
  }
}

// --- checkpoint files and served logits ----------------------------------

/// The MB chebyshev model of kTrainGolden, exported as a checkpoint.
const serve::Checkpoint& GoldenCheckpoint() {
  static const serve::Checkpoint* ckpt = [] {
    const graph::Graph& g = TrainGraph();
    models::TrainConfig cfg = TrainCfg(true);
    cfg.export_model = true;
    auto f = filters::CreateFilter("chebyshev", kHops, {}, g.features.cols());
    SGNN_CHECK(f.ok(), "golden checkpoint filter must build");
    auto filter = f.MoveValue();
    const models::TrainResult r = models::TrainMiniBatch(
        g, graph::RandomSplits(g.n, 4), graph::Metric::kAccuracy,
        filter.get(), cfg);
    SGNN_CHECK(r.status.ok() && r.exported != nullptr,
               "golden checkpoint model must train");
    const serve::CheckpointMeta meta{"golden", g.n, g.num_classes, cfg.rho,
                                     cfg.seed};
    auto c = serve::BuildCheckpoint("chebyshev", kHops, {}, g.features.cols(),
                                    *r.exported, meta);
    SGNN_CHECK(c.ok(), "golden checkpoint must build");
    return new serve::Checkpoint(c.MoveValue());
  }();
  return *ckpt;
}

uint32_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return serialize::Crc32(bytes.data(), bytes.size());
}

/// Logits served for every fifth node, last to first, in one batch.
uint32_t ServedDigest(Result<serve::ServableModel> model) {
  SGNN_CHECK(model.ok(), "golden model must restore");
  std::vector<int64_t> nodes;
  for (int64_t v = model.value().meta.n - 1; v >= 0; v -= 5) {
    nodes.push_back(v);
  }
  serve::Engine engine(model.MoveValue(), {});
  Matrix logits;
  SGNN_CHECK(engine.ServeBatch(nodes, &logits).ok(), "golden serve failed");
  return Digest().Add(logits).value();
}

struct CheckpointGolden {
  quant::Precision precision;
  uint32_t file;    ///< CRC-32 of the whole saved fp32 file; 0: no file
  uint32_t logits;  ///< served from the file loaded back or the image
};

// clang-format off
const CheckpointGolden kCheckpointGolden[] = {
    {quant::Precision::kFp32, 0xa9f94009, 0xf9558d2e},
    {quant::Precision::kInt8, 0, 0xa2555d71},
    {quant::Precision::kFp16, 0, 0xe0dd1678},
};
// clang-format on

TEST(Golden, CheckpointBytesAndServedLogitsMatchPinnedDigests) {
  const serve::Checkpoint& ckpt = GoldenCheckpoint();
  const std::string path = testing::TempDir() + "/sgnn_golden.ckpt";
  for (const CheckpointGolden& want : kCheckpointGolden) {
    const char* name = quant::PrecisionName(want.precision);
    uint32_t logits = 0;
    if (want.precision == quant::Precision::kFp32) {
      ASSERT_TRUE(serve::SaveCheckpoint(ckpt, path).ok());
      auto loaded = serve::LoadCheckpoint(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      logits = ServedDigest(serve::RestoreModel(loaded.value()));
      const uint32_t file = FileDigest(path);
      EXPECT_EQ(file, want.file)
          << name << "/file: actual " << Hex(file) << ", pinned "
          << Hex(want.file);
    } else {
      logits = ServedDigest(serve::RestoreModel(ckpt, want.precision));
    }
    EXPECT_EQ(logits, want.logits)
        << name << "/logits: actual " << Hex(logits) << ", pinned "
        << Hex(want.logits);
  }
  std::remove(path.c_str());
}

// --- the 22 synthetic datasets -----------------------------------------------

struct DatasetGolden {
  const char* name;
  uint32_t indptr;
  uint32_t indices;
  uint32_t values;
  uint32_t features;
  uint32_t labels;
  uint32_t splits;  ///< train, val, test of RandomSplits(n, 1), in that order
};

// clang-format off
const DatasetGolden kDatasetGolden[] = {
    {"cora_sim",          0xe9e3f495, 0xe1c88959, 0x1dde66d5, 0x8165161c, 0x3455107e, 0x1f037e4c},
    {"citeseer_sim",      0x16233348, 0xaa05e596, 0xe38b6955, 0xb442c58c, 0x2fc4d5ca, 0xbbbbd7eb},
    {"pubmed_sim",        0x5ec1985e, 0x0e843f04, 0x050a6914, 0xf176a2e2, 0xc5ebc763, 0x6b8d1e91},
    {"minesweeper_sim",   0xf4b457de, 0x5ac7c1cd, 0xf58e2023, 0x5e4ba167, 0x119bf0d2, 0xdd693ae4},
    {"questions_sim",     0xb337a3ca, 0x414cff9d, 0x7612fb46, 0xd9917742, 0xcc501fc1, 0x6b8d1e91},
    {"tolokers_sim",      0x13e35438, 0x755b2ac0, 0x907fafda, 0x98595258, 0x4b0f3023, 0xadb6abc5},
    {"chameleon_sim",     0x2ea6f9f1, 0x585c8f80, 0x44d7bf3e, 0xc1c2181c, 0x4738985c, 0x8b5edd05},
    {"squirrel_sim",      0xf49fdb28, 0x60e5a680, 0x64ab3d7d, 0x30689ba7, 0xf38c2467, 0xc4e1547f},
    {"actor_sim",         0x7c5734a9, 0x51428e71, 0x11c00a82, 0x04ca167d, 0xf205a854, 0xadb6abc5},
    {"roman_sim",         0xc1bece37, 0xe7b9e90a, 0x80b36ca7, 0xf03c6299, 0xca50ed2c, 0x6b8d1e91},
    {"ratings_sim",       0x7cfd28b9, 0xad3800f9, 0xd6e95ad9, 0x9ad30d88, 0x9451189a, 0x6b8d1e91},
    {"flickr_sim",        0x68e45be1, 0xf317e943, 0xe0c99b56, 0xc2ff6621, 0x90727067, 0xc69ec465},
    {"arxiv_sim",         0xa07be726, 0xd7aaaf1d, 0x2bec9cf1, 0xa0cc2397, 0xda543b44, 0x39c011ae},
    {"arxiv_year_sim",    0x2e2fb6c0, 0x208068c5, 0xf274773f, 0x691043b4, 0x2f510c1d, 0x39c011ae},
    {"penn94_sim",        0xc64f6afa, 0xc2bc0c45, 0xe572889c, 0xfc13657f, 0xaf784a56, 0x3f290b9b},
    {"genius_sim",        0x050e853f, 0xeca01d56, 0xd9a26ff2, 0x49dfb363, 0xb847062f, 0xab8b1c6b},
    {"twitch_sim",        0x95832f16, 0x1132d6b2, 0x28e67aef, 0x102bcc56, 0xdf3e88db, 0x56ea6ca8},
    {"mag_sim",           0x14dea0c7, 0xbc29c969, 0xdbf4cdbf, 0xc27ab5f6, 0x0c7a18aa, 0xa773d29b},
    {"products_sim",      0xcef1b71f, 0xff7bfb0e, 0xed0a778c, 0x667410b1, 0x97264c1f, 0xc0643763},
    {"pokec_sim",         0x624f46ee, 0x0dbaadbe, 0x3c742628, 0x1ae303b3, 0xbeb4cd0c, 0xf3445a6f},
    {"snap_patents_sim",  0xb5b210bb, 0x50f214dc, 0x5351cabd, 0xaf210a25, 0x4d2152f1, 0x668624db},
    {"wiki_sim",          0x75c8fb09, 0xc4475e27, 0x5c5d6854, 0xaf8413b7, 0x84e89da2, 0x5525d1a8},
};
// clang-format on

TEST(Golden, EveryDatasetMatchesPinnedDigests) {
  if (graph::GlobalScaleFactor() != 1.0) {
    GTEST_SKIP() << "the pins describe the datasets at SPECTRAL_SCALE=1";
  }
  const std::vector<graph::DatasetSpec>& specs = graph::AllDatasets();
  ASSERT_EQ(specs.size(), std::size(kDatasetGolden));
  for (size_t i = 0; i < specs.size(); ++i) {
    const DatasetGolden& want = kDatasetGolden[i];
    const graph::Graph g = graph::MakeDataset(specs[i], 1);
    const graph::Splits s = graph::RandomSplits(g.n, 1);
    const DatasetGolden got = {
        specs[i].name.c_str(),
        Digest().Add(g.adj.indptr()).value(),
        Digest().Add(g.adj.indices()).value(),
        Digest().Add(g.adj.values()).value(),
        Digest().Add(g.features).value(),
        Digest().Add(g.labels).value(),
        Digest().Add(s.train).Add(s.val).Add(s.test).value()};
    const std::string actual =
        std::string("actual {\"") + got.name + "\", " + Hex(got.indptr) +
        ", " + Hex(got.indices) + ", " + Hex(got.values) + ", " +
        Hex(got.features) + ", " + Hex(got.labels) + ", " + Hex(got.splits) +
        "}";
    EXPECT_STREQ(got.name, want.name) << actual;
    EXPECT_EQ(got.indptr, want.indptr) << actual;
    EXPECT_EQ(got.indices, want.indices) << actual;
    EXPECT_EQ(got.values, want.values) << actual;
    EXPECT_EQ(got.features, want.features) << actual;
    EXPECT_EQ(got.labels, want.labels) << actual;
    EXPECT_EQ(got.splits, want.splits) << actual;
  }
}

}  // namespace
}  // namespace sgnn

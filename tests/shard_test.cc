// Tests for sharded graph execution (src/shard/ + docs/SHARDING.md):
// partitioner determinism/coverage/balance, slice structure invariants,
// sharded-vs-unsharded bit-identity across the nine fuzz graph families x
// shard counts x thread counts (raw operator, filter forward, precompute
// terms), per-shard budget/spill semantics against DeviceTracker, the
// OOM-unsharded-completes-sharded memory demo, spill journaling, and a
// sharded kill-and-resume Supervisor round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "conformance/fuzz.h"
#include "conformance/shard_check.h"
#include "core/registry.h"
#include "eval/eigen.h"
#include "graph/generator.h"
#include "models/trainer.h"
#include "runtime/fault_injection.h"
#include "runtime/supervisor.h"
#include "shard/partition.h"
#include "shard/plan.h"
#include "shard/spmm.h"
#include "sparse/adjacency.h"
#include "tensor/device.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace sgnn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols, Device::kHost);
  Rng rng(seed);
  m.FillNormal(&rng);
  return m;
}

/// Ring + chords propagation matrix, normalized like the trainer's.
sparse::CsrMatrix SmallProp(int64_t n, uint64_t seed) {
  Rng rng(seed);
  sparse::EdgeList edges;
  for (int64_t i = 0; i < n; ++i) {
    edges.emplace_back(static_cast<int32_t>(i),
                       static_cast<int32_t>((i + 1) % n));
    if (rng.Bernoulli(0.3)) {
      edges.emplace_back(static_cast<int32_t>(i),
                         static_cast<int32_t>(rng.UniformInt(n)));
    }
  }
  auto adj = sparse::BuildAdjacency(n, edges, /*add_self_loops=*/true);
  SGNN_CHECK(adj.ok(), "test fixture adjacency must build");
  return sparse::NormalizeAdjacency(adj.value(), 0.5);
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// One representative case per fuzz graph family (er/sbm/star/path/cycle/
/// disconnected/self_loop/isolated/empty).
std::map<std::string, conformance::FuzzCase> FamilyCases() {
  std::map<std::string, conformance::FuzzCase> cases;
  for (uint64_t seed = 1; seed <= 2000 && cases.size() < 9; ++seed) {
    conformance::FuzzCase c = conformance::CaseFromSeed(seed);
    cases.emplace(c.family, std::move(c));
  }
  return cases;
}

// --- partitioner -------------------------------------------------------------

TEST(ShardPartition, CoversEveryNodeExactlyOnceAndBalances) {
  const sparse::CsrMatrix prop = SmallProp(97, 5);
  for (const int k : {1, 2, 4, 8}) {
    const shard::Partition p =
        shard::GreedyBfsPartition(prop, {k, /*seed=*/3});
    ASSERT_EQ(p.num_shards, k);
    ASSERT_EQ(p.shard_of.size(), 97u);
    ASSERT_EQ(p.owned.size(), static_cast<size_t>(k));
    const int64_t quota = (97 + k - 1) / k;
    std::vector<int> seen(97, 0);
    for (int s = 0; s < k; ++s) {
      // Owned lists ascend in global id and respect the ceil(n/K) quota
      // (the last shard takes the remainder).
      EXPECT_TRUE(std::is_sorted(p.owned[s].begin(), p.owned[s].end()));
      if (s + 1 < k) {
        EXPECT_LE(static_cast<int64_t>(p.owned[s].size()), quota);
      }
      for (const int32_t v : p.owned[s]) {
        EXPECT_EQ(p.shard_of[static_cast<size_t>(v)], s);
        ++seen[static_cast<size_t>(v)];
      }
    }
    for (int count : seen) EXPECT_EQ(count, 1);
  }
}

TEST(ShardPartition, DeterministicAndSeedSensitive) {
  const sparse::CsrMatrix prop = SmallProp(64, 9);
  const shard::Partition a = shard::GreedyBfsPartition(prop, {4, 11});
  const shard::Partition b = shard::GreedyBfsPartition(prop, {4, 11});
  EXPECT_EQ(a.shard_of, b.shard_of);
  // A different seed grows shards from different roots (not a hard
  // guarantee for every seed pair, but these differ).
  const shard::Partition c = shard::GreedyBfsPartition(prop, {4, 12});
  EXPECT_NE(a.shard_of, c.shard_of);
}

TEST(ShardPartition, MoreShardsThanNodesLeavesTrailingEmpty) {
  const sparse::CsrMatrix prop = SmallProp(3, 2);
  const shard::Partition p = shard::GreedyBfsPartition(prop, {8, 1});
  int64_t total = 0;
  for (const auto& owned : p.owned) total += static_cast<int64_t>(owned.size());
  EXPECT_EQ(total, 3);
}

TEST(ShardPartition, EdgeCutCountsAndSingleShardHasNoCut) {
  const sparse::CsrMatrix prop = SmallProp(50, 4);
  const shard::Partition one = shard::GreedyBfsPartition(prop, {1, 1});
  const shard::EdgeCutStats s1 = shard::ComputeEdgeCut(prop, one);
  EXPECT_EQ(s1.cut_edges, 0);
  EXPECT_EQ(s1.total_edges, prop.nnz());
  EXPECT_DOUBLE_EQ(s1.cut_fraction(), 0.0);

  const shard::Partition four = shard::GreedyBfsPartition(prop, {4, 1});
  const shard::EdgeCutStats s4 = shard::ComputeEdgeCut(prop, four);
  EXPECT_GT(s4.cut_edges, 0);
  EXPECT_LE(s4.cut_edges, s4.total_edges);

  // Smaller shards leave more of each neighborhood outside.
  const shard::Partition sixteen = shard::GreedyBfsPartition(prop, {16, 1});
  EXPECT_GT(shard::ComputeEdgeCut(prop, sixteen).cut_edges, s4.cut_edges);
}

// --- plan / slices -----------------------------------------------------------

TEST(ShardPlan, SliceStructureInvariants) {
  const sparse::CsrMatrix prop = SmallProp(60, 7);
  const shard::ShardPlan plan = shard::BuildShardPlan(prop, {4, 7});
  ASSERT_EQ(plan.num_shards, 4);
  EXPECT_EQ(plan.n, 60);
  int64_t total_owned = 0;
  for (const auto& slice : plan.slices) {
    total_owned += slice.owned_count();
    // Square slice, gather = owned ++ halo.
    ASSERT_EQ(slice.local_n(), slice.owned_count() + slice.halo_count());
    ASSERT_EQ(static_cast<int64_t>(slice.gather.size()), slice.local_n());
    for (int64_t i = 0; i < slice.owned_count(); ++i) {
      EXPECT_EQ(slice.gather[static_cast<size_t>(i)],
                slice.owned[static_cast<size_t>(i)]);
    }
    // Halo rows are empty padding; owned rows replicate the global row
    // verbatim (same values, same order, columns remapped).
    const auto& indptr = slice.local.indptr();
    for (int64_t r = slice.owned_count(); r < slice.local_n(); ++r) {
      EXPECT_EQ(indptr[r], indptr[r + 1]);
    }
    for (int64_t r = 0; r < slice.owned_count(); ++r) {
      const int32_t global_row = slice.owned[static_cast<size_t>(r)];
      const int64_t g_begin = prop.indptr()[global_row];
      const int64_t g_end = prop.indptr()[global_row + 1];
      ASSERT_EQ(indptr[r + 1] - indptr[r], g_end - g_begin);
      for (int64_t j = 0; j < g_end - g_begin; ++j) {
        const int32_t local_col = slice.local.indices()[indptr[r] + j];
        EXPECT_EQ(slice.gather[static_cast<size_t>(local_col)],
                  prop.indices()[g_begin + j]);
        EXPECT_EQ(slice.local.values()[indptr[r] + j],
                  prop.values()[g_begin + j]);
      }
    }
  }
  EXPECT_EQ(total_owned, 60);
  EXPECT_EQ(plan.stats.total_owned, 60);
  EXPECT_GE(plan.stats.total_halo, 0);
}

// --- bit-identity ------------------------------------------------------------

// The core determinism contract: the raw sharded operator reproduces the
// single-CSR SpMM byte for byte for every fuzz graph family, shard count,
// and thread count.
TEST(ShardBitIdentity, OperatorMatchesSpmmAcrossFamiliesShardsThreads) {
  const auto cases = FamilyCases();
  ASSERT_EQ(cases.size(), 9u);
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const auto& [family, c] : cases) {
    auto adj_or = sparse::BuildAdjacency(c.n, c.edges, c.self_loops);
    ASSERT_TRUE(adj_or.ok()) << family;
    const sparse::CsrMatrix prop =
        sparse::NormalizeAdjacency(adj_or.value(), c.rho);
    const Matrix x = RandomMatrix(c.n, 3, c.seed ^ 0xBEEFull);
    Matrix y_ref(c.n, 3, Device::kHost);
    prop.SpMM(x, &y_ref);
    for (const int k : {1, 2, 4, 8}) {
      const shard::ShardPlan plan = shard::BuildShardPlan(prop, {k, 7});
      const shard::ShardedSpmmOperator op(&plan);
      ASSERT_EQ(op.n(), c.n);
      for (const int threads : {1, 4, hw}) {
        parallel::SetNumThreads(threads);
        Matrix y(c.n, 3, Device::kHost);
        op.Apply(x, &y);
        EXPECT_TRUE(BitIdentical(y, y_ref))
            << family << " K=" << k << " threads=" << threads;
      }
    }
  }
  parallel::SetNumThreads(0);
}

// Filter-level bit-identity: forward and precompute terms through the
// sharded operator equal the unsharded path, at multiple thread counts (the
// full all-filter sweep runs in sgnn_conformance --mode=shard; this pins
// one MB-capable filter per family).
TEST(ShardBitIdentity, ChebyshevForwardPrecomputeAcrossFamilies) {
  const auto cases = FamilyCases();
  ASSERT_EQ(cases.size(), 9u);
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const auto& [family, c] : cases) {
    auto adj_or = sparse::BuildAdjacency(c.n, c.edges, c.self_loops);
    ASSERT_TRUE(adj_or.ok()) << family;
    const sparse::CsrMatrix prop =
        sparse::NormalizeAdjacency(adj_or.value(), c.rho);
    const Matrix x = RandomMatrix(c.n, 3, c.seed ^ 0xF00Dull);
    auto filter_or = filters::CreateFilter("chebyshev", c.hops, {}, x.cols());
    ASSERT_TRUE(filter_or.ok());
    auto filter = filter_or.MoveValue();

    filters::FilterContext ctx;
    ctx.prop = &prop;
    ctx.device = Device::kHost;
    Matrix y_ref;
    filter->Forward(ctx, x, &y_ref, /*cache=*/false);
    std::vector<Matrix> terms_ref;
    ASSERT_TRUE(filter->Precompute(ctx, x, &terms_ref).ok());

    const shard::ShardPlan plan = shard::BuildShardPlan(prop, {4, 7});
    const shard::ShardedSpmmOperator op(&plan);
    filters::FilterContext sharded = ctx;
    sharded.op = &op;
    for (const int threads : {1, 4, hw}) {
      parallel::SetNumThreads(threads);
      Matrix y;
      filter->Forward(sharded, x, &y, /*cache=*/false);
      EXPECT_TRUE(BitIdentical(y, y_ref))
          << family << " threads=" << threads;
      std::vector<Matrix> terms;
      ASSERT_TRUE(filter->Precompute(sharded, x, &terms).ok());
      ASSERT_EQ(terms.size(), terms_ref.size());
      for (size_t t = 0; t < terms.size(); ++t) {
        EXPECT_TRUE(BitIdentical(terms[t], terms_ref[t]))
            << family << " term " << t << " threads=" << threads;
      }
    }
  }
  parallel::SetNumThreads(0);
}

// The conformance checker itself: a handful of filters spanning fixed /
// variable / bank families pass the sharded check on a fixture graph.
TEST(ShardBitIdentity, ConformanceCheckerPassesRepresentativeFilters) {
  const sparse::CsrMatrix prop = SmallProp(30, 13);
  auto eig_or = eval::JacobiEigen(eval::DenseLaplacian(prop));
  ASSERT_TRUE(eig_or.ok());
  const Matrix x = RandomMatrix(30, 4, 14);
  for (const char* name : {"chebyshev", "ppr", "monomial", "fagnn"}) {
    auto report_or =
        conformance::CheckShardConformance(name, prop, eig_or.value(), x);
    ASSERT_TRUE(report_or.ok()) << name;
    EXPECT_TRUE(report_or.value().pass)
        << name << ": " << report_or.value().detail;
  }
}

// --- budgets and spills ------------------------------------------------------

/// Largest working set (CSR slice plus gathered input and output) of any
/// shard in `plan` for a `cols`-wide input, and the count of non-empty
/// shards.
size_t LargestWorkingSet(const shard::ShardPlan& plan, int64_t cols,
                         int64_t* non_empty) {
  *non_empty = 0;
  size_t largest = 0;
  for (const shard::ShardSlice& slice : plan.slices) {
    if (slice.owned_count() == 0) continue;
    ++*non_empty;
    const size_t mat_bytes =
        static_cast<size_t>(slice.local_n() * cols) * sizeof(float);
    largest = std::max(largest, slice.local.bytes() + 2 * mat_bytes);
  }
  return largest;
}

/// One sharded Apply of `x` under accel `capacity`; checks the bits against
/// `y_ref` and returns the spill count.
int64_t SpillsAt(const shard::ShardPlan& plan, const Matrix& x,
                 const Matrix& y_ref, size_t capacity) {
  auto& tracker = DeviceTracker::Global();
  tracker.set_accel_capacity(capacity);
  tracker.ResetPeak();
  const shard::ShardedSpmmOperator op(&plan);
  Matrix y(x.rows(), x.cols(), Device::kHost);
  op.Apply(x, &y);
  EXPECT_TRUE(BitIdentical(y, y_ref)) << "capacity " << capacity;
  EXPECT_EQ(op.stats().applies, 1);
  return op.stats().shard_spills;
}

// A capacity too small for any shard spills every hop host-side, one that
// fits the largest working set K times keeps every hop on the accelerator,
// and 0 (unlimited) never spills. The bits never change.
TEST(ShardBudget, SpillsOverBudgetHopsHostSideWithIdenticalBits) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  const sparse::CsrMatrix prop = SmallProp(80, 25);
  const Matrix x = RandomMatrix(80, 8, 26);
  Matrix y_ref(80, 8, Device::kHost);
  prop.SpMM(x, &y_ref);

  const shard::ShardPlan plan = shard::BuildShardPlan(prop, {4, 3});
  int64_t non_empty = 0;
  const size_t largest = LargestWorkingSet(plan, 8, &non_empty);
  ASSERT_GT(non_empty, 0);

  // 4 B at K = 4 is a 1-byte sub-budget: every non-empty shard spills and
  // nothing reaches the accelerator.
  EXPECT_EQ(SpillsAt(plan, x, y_ref, 4), non_empty);
  EXPECT_EQ(tracker.peak_bytes(Device::kAccel), 0u);

  // K x the largest working set fits every shard, one at a time.
  EXPECT_EQ(SpillsAt(plan, x, y_ref, 4 * largest), 0);
  EXPECT_GT(tracker.peak_bytes(Device::kAccel), 0u);
  EXPECT_LE(tracker.peak_bytes(Device::kAccel), largest);

  // 0 is unlimited, and the default later tests expect.
  EXPECT_EQ(SpillsAt(plan, x, y_ref, 0), 0);
  EXPECT_FALSE(tracker.accel_oom());
  tracker.ResetAll();
}

// Each shard's sub-budget is accel capacity / K, at every K: K x the largest
// working set fits, and one byte less makes the largest shard spill, so the
// capacity is split K ways rather than granted whole to each shard.
TEST(ShardBudget, DefaultBudgetIsCapacityOverShardCount) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  const sparse::CsrMatrix prop = SmallProp(80, 25);
  const Matrix x = RandomMatrix(80, 8, 26);
  Matrix y_ref(80, 8, Device::kHost);
  prop.SpMM(x, &y_ref);

  for (const int k : {2, 4}) {
    const shard::ShardPlan plan = shard::BuildShardPlan(prop, {k, 3});
    int64_t non_empty = 0;
    const size_t largest = LargestWorkingSet(plan, 8, &non_empty);
    ASSERT_GT(non_empty, 1) << "K=" << k;
    const size_t fits = static_cast<size_t>(k) * largest;
    EXPECT_EQ(SpillsAt(plan, x, y_ref, fits), 0) << "K=" << k;
    EXPECT_GE(SpillsAt(plan, x, y_ref, fits - 1), 1) << "K=" << k;
  }
  tracker.set_accel_capacity(0);
  tracker.ResetAll();
}

// The acceptance demo: a run that OOMs unsharded completes sharded under
// the same simulated accelerator capacity, with per-shard peaks inside the
// sub-budgets and without ever latching the OOM flag.
TEST(ShardBudget, TenXGraphOomsUnshardedCompletesSharded) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();

  graph::GeneratorConfig gc;
  gc.n = 300;
  gc.node_multiplier = 10.0;  // 3000 nodes, the Fig. 3 scale knob
  gc.avg_degree = 8.0;
  gc.num_classes = 4;
  gc.homophily = 0.85;
  gc.feature_dim = 32;
  gc.noise = 2.0;
  gc.seed = 3;
  graph::Graph g = graph::GenerateSbm(gc);
  ASSERT_EQ(g.n, 3000);
  graph::Splits s = graph::RandomSplits(g.n, 1);

  models::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.eval_every = 2;
  cfg.hidden = 32;
  cfg.seed = 1;

  auto filter_or = filters::CreateFilter("chebyshev", 4, {}, g.features.cols());
  ASSERT_TRUE(filter_or.ok());

  // Capacity sized between one shard's working set and the full FB
  // residency: unsharded FB must OOM.
  tracker.set_accel_capacity(2u << 20);
  const models::TrainResult unsharded = models::TrainFullBatch(
      g, s, graph::Metric::kAccuracy, filter_or.value().get(), cfg);
  EXPECT_TRUE(unsharded.oom);
  tracker.ClearOom();
  tracker.ResetPeak();

  // The same run sharded completes: graph and representations stay
  // host-resident, only per-shard working sets visit the accelerator.
  models::TrainConfig sharded_cfg = cfg;
  sharded_cfg.num_shards = 4;
  const models::TrainResult sharded = models::TrainFullBatch(
      g, s, graph::Metric::kAccuracy, filter_or.value().get(), sharded_cfg);
  EXPECT_FALSE(sharded.oom);
  ASSERT_TRUE(sharded.status.ok()) << sharded.status.ToString();
  EXPECT_EQ(sharded.stats.shards, 4);
  EXPECT_FALSE(tracker.accel_oom());
  EXPECT_LE(tracker.peak_bytes(Device::kAccel), 2u << 20);

  tracker.set_accel_capacity(0);
  tracker.ResetAll();
}

// Sharded and unsharded training produce identical metrics when both fit:
// the sharded FB path only swaps the propagation operator, which is
// bit-identical, so the whole training trajectory matches.
TEST(ShardBudget, ShardedTrainingMatchesUnshardedMetrics) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  graph::GeneratorConfig gc;
  gc.n = 400;
  gc.avg_degree = 8.0;
  gc.num_classes = 4;
  gc.homophily = 0.85;
  gc.feature_dim = 16;
  gc.noise = 2.0;
  gc.seed = 3;
  graph::Graph g = graph::GenerateSbm(gc);
  graph::Splits s = graph::RandomSplits(g.n, 1);

  models::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.eval_every = 5;
  cfg.hidden = 32;
  cfg.seed = 1;

  auto filter_or = filters::CreateFilter("ppr", 4, {}, g.features.cols());
  ASSERT_TRUE(filter_or.ok());
  const models::TrainResult base = models::TrainFullBatch(
      g, s, graph::Metric::kAccuracy, filter_or.value().get(), cfg);
  ASSERT_TRUE(base.status.ok());

  for (const int k : {2, 4, 8}) {
    models::TrainConfig sharded_cfg = cfg;
    sharded_cfg.num_shards = k;
    const models::TrainResult sharded = models::TrainFullBatch(
        g, s, graph::Metric::kAccuracy, filter_or.value().get(), sharded_cfg);
    ASSERT_TRUE(sharded.status.ok()) << "K=" << k;
    EXPECT_DOUBLE_EQ(sharded.val_metric, base.val_metric) << "K=" << k;
    EXPECT_DOUBLE_EQ(sharded.test_metric, base.test_metric) << "K=" << k;
    EXPECT_DOUBLE_EQ(sharded.final_train_loss, base.final_train_loss)
        << "K=" << k;
  }
  tracker.ResetAll();
}

// A sharded MB precompute whose hop latches the accelerator OOM flag (an
// armed fault on the first accelerator allocation) reports an OOM run, the
// classification the epoch guard gives, so the Supervisor journals an (OOM)
// cell rather than a failure.
TEST(ShardBudget, ShardedPrecomputeOomReportsOomRun) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  graph::GeneratorConfig gc;
  gc.n = 300;
  gc.avg_degree = 8.0;
  gc.num_classes = 4;
  gc.feature_dim = 16;
  gc.seed = 5;
  graph::Graph g = graph::GenerateSbm(gc);
  graph::Splits s = graph::RandomSplits(g.n, 1);

  models::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.hidden = 16;
  cfg.batch_size = 64;
  cfg.phi0_layers = 0;
  cfg.phi1_layers = 2;
  cfg.num_shards = 4;
  auto filter_or = filters::CreateFilter("chebyshev", 4, {}, g.features.cols());
  ASSERT_TRUE(filter_or.ok());

  runtime::FaultPlan plan;
  plan.accel_alloc_fail_nth = 1;
  runtime::FaultInjector::Global().Arm(plan);
  const models::TrainResult r = models::TrainMiniBatch(
      g, s, graph::Metric::kAccuracy, filter_or.value().get(), cfg);
  runtime::FaultInjector::Global().Disarm();
  EXPECT_TRUE(r.oom);
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfMemory) << r.status.ToString();
  tracker.ResetAll();
}

// --- supervisor integration --------------------------------------------------

// An OK sharded cell that spilled journals one line, its terminal OK record,
// which carries the spill count; resume serves the cell from the journal.
TEST(ShardSupervisor, JournalsShardSpillCompanionRecords) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  graph::GeneratorConfig gc;
  gc.n = 300;
  gc.avg_degree = 6.0;
  gc.num_classes = 3;
  gc.feature_dim = 16;
  gc.seed = 5;
  graph::Graph g = graph::GenerateSbm(gc);
  graph::Splits s = graph::RandomSplits(g.n, 1);

  models::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.eval_every = 2;
  cfg.hidden = 16;
  cfg.num_shards = 4;

  const std::string path = TempPath("shard_spill.jsonl");
  std::remove(path.c_str());
  const runtime::CellKey key{"small", "chebyshev", "fb", 1, "K=4"};
  {
    runtime::Supervisor sup("shard_spill", path);
    // A 4-byte capacity at K = 4 is a 1-byte sub-budget, so every shard
    // hop spills. Sharded FB keeps everything else on the host, so the
    // OOM guard (and the FB -> MB fallback) never fires.
    tracker.set_accel_capacity(4);
    const runtime::CellRecord rec =
        sup.RunTraining(key, g, s, graph::Metric::kAccuracy, cfg);
    tracker.set_accel_capacity(0);
    ASSERT_TRUE(rec.ok()) << rec.detail;
    EXPECT_FALSE(rec.fell_back);
    EXPECT_EQ(rec.stats.shards, 4);
    EXPECT_GT(rec.stats.shard_spills, 0);
    EXPECT_EQ(rec.stats.peak_accel_bytes, 0u);
  }
  // The journal holds one line for the cell: the terminal OK record, with
  // the spill count.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.append(buf, got);
    }
    std::fclose(f);
    const size_t eol = contents.find('\n');
    ASSERT_EQ(eol + 1, contents.size()) << contents;
    auto line_or = runtime::DecodeRecord(contents.substr(0, eol));
    ASSERT_TRUE(line_or.ok()) << line_or.status().ToString();
    EXPECT_TRUE(line_or.value().terminal);
    EXPECT_TRUE(line_or.value().ok());
    EXPECT_GT(line_or.value().stats.shard_spills, 0);
  }
  {
    runtime::Supervisor sup("shard_spill", path);
    const runtime::CellRecord* done = sup.Find(key);
    ASSERT_NE(done, nullptr);
    EXPECT_TRUE(done->ok());
    EXPECT_GT(done->stats.shard_spills, 0);
  }
  std::remove(path.c_str());
  tracker.ResetAll();
}

// Kill-and-resume round trip over sharded cells: an interrupted sharded
// grid resumed on the same journal rebuilds the uninterrupted table, and
// the sharded grid's metrics equal the unsharded grid's bit for bit.
TEST(ShardSupervisor, ShardedKillAndResumeRoundTrip) {
  graph::GeneratorConfig gc;
  gc.n = 400;
  gc.avg_degree = 8.0;
  gc.num_classes = 4;
  gc.homophily = 0.85;
  gc.feature_dim = 16;
  gc.noise = 2.0;
  gc.seed = 3;
  graph::Graph g = graph::GenerateSbm(gc);
  graph::Splits s = graph::RandomSplits(g.n, 1);

  models::TrainConfig sharded_cfg;
  sharded_cfg.epochs = 10;
  sharded_cfg.eval_every = 5;
  sharded_cfg.hidden = 32;
  sharded_cfg.num_shards = 4;
  models::TrainConfig unsharded_cfg = sharded_cfg;
  unsharded_cfg.num_shards = 0;

  const std::vector<runtime::CellKey> grid = {
      {"small", "chebyshev", "fb", 1, "K=4"},
      {"small", "ppr", "fb", 1, "K=4"},
  };

  // Reference: uninterrupted sharded run on its own journal.
  const std::string ref_path = TempPath("shard_roundtrip_ref.jsonl");
  std::remove(ref_path.c_str());
  std::vector<runtime::CellRecord> reference;
  {
    runtime::Supervisor sup("shard_roundtrip", ref_path);
    for (const auto& key : grid) {
      reference.push_back(
          sup.RunTraining(key, g, s, graph::Metric::kAccuracy, sharded_cfg));
    }
  }

  // Interrupted: one cell, then "die" without cleanup; resume the journal.
  const std::string path = TempPath("shard_roundtrip_killed.jsonl");
  std::remove(path.c_str());
  {
    runtime::Supervisor sup("shard_roundtrip", path);
    sup.RunTraining(grid[0], g, s, graph::Metric::kAccuracy, sharded_cfg);
  }
  {
    runtime::Supervisor sup("shard_roundtrip", path);
    std::vector<runtime::CellRecord> resumed;
    for (const auto& key : grid) {
      resumed.push_back(
          sup.RunTraining(key, g, s, graph::Metric::kAccuracy, sharded_cfg));
    }
    EXPECT_EQ(sup.resumed_cells(), 1u);
    ASSERT_EQ(resumed.size(), reference.size());
    for (size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(resumed[i].status, reference[i].status);
      EXPECT_EQ(resumed[i].stats.shards, 4);
      EXPECT_DOUBLE_EQ(resumed[i].val_metric, reference[i].val_metric);
      EXPECT_DOUBLE_EQ(resumed[i].test_metric, reference[i].test_metric);
      EXPECT_DOUBLE_EQ(resumed[i].train_loss, reference[i].train_loss);
    }
  }

  // Sharded ≡ unsharded at the training-table level too.
  {
    runtime::Supervisor sup("shard_roundtrip_unsharded", "");
    for (size_t i = 0; i < grid.size(); ++i) {
      const runtime::CellRecord unsharded = sup.RunTraining(
          grid[i], g, s, graph::Metric::kAccuracy, unsharded_cfg);
      EXPECT_EQ(unsharded.status, reference[i].status);
      EXPECT_DOUBLE_EQ(unsharded.val_metric, reference[i].val_metric);
      EXPECT_DOUBLE_EQ(unsharded.test_metric, reference[i].test_metric);
      EXPECT_DOUBLE_EQ(unsharded.train_loss, reference[i].train_loss);
    }
  }

  std::remove(ref_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgnn

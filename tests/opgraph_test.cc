// Tests for the op-graph (src/opgraph/ + filters::CsrSpmmOperator in
// core/filter.h): builder shape/topology invariants, SpMM-chain fusion
// legality and refusal, planner determinism and alias correctness, exact
// peak-byte accounting against DeviceTracker, and the paper's Table 1
// memory model for the filters that run through it (forward peak flat in K
// and within the streaming caps).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/filter.h"
#include "core/registry.h"
#include "graph/generator.h"
#include "opgraph/executor.h"
#include "opgraph/fusion.h"
#include "opgraph/graph.h"
#include "opgraph/planner.h"
#include "sparse/adjacency.h"
#include "tensor/device.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace sgnn {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    Device device = Device::kHost) {
  Matrix m(rows, cols, device);
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

// --- builder -----------------------------------------------------------------

TEST(OpGraphBuilder, RecordsShapesAndTopologicalOrder) {
  const sparse::CsrMatrix prop = SmallProp(12, 1);
  const filters::CsrSpmmOperator op(&prop);
  const Matrix x = RandomMatrix(12, 4, 2);

  opgraph::Graph g(Device::kHost);
  const opgraph::ValueId vx = g.Input(&x);
  const opgraph::ValueId s = g.Spmm(&op, vx);
  const opgraph::ValueId u = g.Scale(2.0f, s);
  const opgraph::ValueId a = g.Axpy(0.5f, vx, u);
  const opgraph::ValueId z = g.Zero(12, 4);
  const opgraph::ValueId acc = g.Axpy(1.0f, a, z);
  Matrix out;
  g.MarkOutput(acc, &out);

  EXPECT_EQ(g.num_values(), 6);
  EXPECT_EQ(g.nodes().size(), 5u);
  EXPECT_EQ(g.rows(s), 12);
  EXPECT_EQ(g.cols(s), 4);
  EXPECT_EQ(g.rows(acc), 12);
  EXPECT_EQ(g.cols(acc), 4);
  EXPECT_TRUE(g.values()[static_cast<size_t>(vx)].is_input());
  EXPECT_FALSE(g.values()[static_cast<size_t>(s)].is_input());
  EXPECT_EQ(g.values()[static_cast<size_t>(acc)].output, &out);

  // SSA: every node's inputs are defined strictly before the node.
  for (size_t i = 0; i < g.nodes().size(); ++i) {
    const opgraph::Node& n = g.nodes()[i];
    EXPECT_EQ(g.values()[static_cast<size_t>(n.out)].def,
              static_cast<int>(i));
    for (const opgraph::ValueId v : {n.in0, n.in1, n.in2}) {
      if (v == opgraph::kNoValue) continue;
      EXPECT_LT(g.values()[static_cast<size_t>(v)].def, static_cast<int>(i));
    }
  }

  const std::vector<int> uses = g.UseCounts();
  EXPECT_EQ(uses[static_cast<size_t>(vx)], 2);  // Spmm + Axpy
  EXPECT_EQ(uses[static_cast<size_t>(s)], 1);
  EXPECT_EQ(uses[static_cast<size_t>(acc)], 0);  // marked outputs not counted
}

// --- fusion ------------------------------------------------------------------

TEST(OpGraphFusion, CollapsesSpmmScaleAxpyChainAndPreservesBits) {
  const sparse::CsrMatrix prop = SmallProp(20, 4);
  const filters::CsrSpmmOperator op(&prop);
  const Matrix cur = RandomMatrix(20, 5, 5);
  const Matrix prev = RandomMatrix(20, 5, 6);

  // The recurrence chain: next = 2·(Ã cur) + 0.5·cur − 1·prev.
  auto record = [&](Matrix* out) {
    auto g = std::make_unique<opgraph::Graph>(Device::kHost);
    const opgraph::ValueId vc = g->Input(&cur);
    const opgraph::ValueId vp = g->Input(&prev);
    const opgraph::ValueId s = g->Spmm(&op, vc);
    const opgraph::ValueId u = g->Scale(2.0f, s);
    const opgraph::ValueId v = g->Axpy(0.5f, vc, u);
    const opgraph::ValueId w = g->Axpy(-1.0f, vp, v);
    g->MarkOutput(w, out);
    return g;
  };

  Matrix fused_out;
  auto fused = record(&fused_out);
  EXPECT_EQ(opgraph::FuseSpmmChains(fused.get()), 1);
  ASSERT_EQ(fused->nodes().size(), 1u);
  const opgraph::Node& f = fused->nodes()[0];
  EXPECT_EQ(f.kind, opgraph::OpKind::kFusedSpmmAffine);
  EXPECT_FLOAT_EQ(f.ca, 2.0f);
  EXPECT_FLOAT_EQ(f.ci, 0.5f);
  EXPECT_FLOAT_EQ(f.cp, -1.0f);
  ASSERT_TRUE(Execute(*fused, opgraph::PlanBuffers(*fused)).ok());

  Matrix unfused_out;
  auto unfused = record(&unfused_out);
  ASSERT_TRUE(Execute(*unfused, opgraph::PlanBuffers(*unfused)).ok());

  EXPECT_TRUE(BitIdentical(fused_out, unfused_out));
}

TEST(OpGraphFusion, RefusesMultiUseIntermediates) {
  const sparse::CsrMatrix prop = SmallProp(10, 7);
  const filters::CsrSpmmOperator op(&prop);
  const Matrix x = RandomMatrix(10, 3, 8);

  opgraph::Graph g(Device::kHost);
  const opgraph::ValueId vx = g.Input(&x);
  const opgraph::ValueId s = g.Spmm(&op, vx);   // used twice below
  const opgraph::ValueId u = g.Scale(2.0f, s);
  const opgraph::ValueId v = g.Axpy(1.0f, s, u);
  Matrix out;
  g.MarkOutput(v, &out);

  EXPECT_EQ(opgraph::FuseSpmmChains(&g), 0);
  EXPECT_EQ(g.nodes().size(), 3u);
}

TEST(OpGraphFusion, StopsAbsorbingAtMarkedOutputs) {
  const sparse::CsrMatrix prop = SmallProp(10, 9);
  const filters::CsrSpmmOperator op(&prop);
  const Matrix x = RandomMatrix(10, 3, 10);

  opgraph::Graph g(Device::kHost);
  const opgraph::ValueId vx = g.Input(&x);
  const opgraph::ValueId s = g.Spmm(&op, vx);
  const opgraph::ValueId u = g.Scale(2.0f, s);
  Matrix mid, out;
  g.MarkOutput(u, &mid);  // marked value must survive fusion
  const opgraph::ValueId v = g.Axpy(1.0f, vx, u);
  g.MarkOutput(v, &out);

  // Spmm→Scale still fuses, but the Axpy past the marked value does not.
  EXPECT_EQ(opgraph::FuseSpmmChains(&g), 1);
  ASSERT_EQ(g.nodes().size(), 2u);
  EXPECT_EQ(g.nodes()[0].kind, opgraph::OpKind::kFusedSpmmAffine);
  EXPECT_EQ(g.nodes()[1].kind, opgraph::OpKind::kAxpy);

  ASSERT_TRUE(Execute(g, opgraph::PlanBuffers(g)).ok());
  Matrix want_mid(10, 3, Device::kHost);
  prop.SpMM(x, &want_mid);
  ops::Scale(2.0f, &want_mid);
  Matrix want_out = want_mid;
  ops::Axpy(1.0f, x, &want_out);
  EXPECT_TRUE(BitIdentical(mid, want_mid));
  EXPECT_TRUE(BitIdentical(out, want_out));
}

// --- planner -----------------------------------------------------------------

TEST(OpGraphPlanner, PlansAreDeterministic) {
  const sparse::CsrMatrix prop = SmallProp(16, 11);
  const filters::CsrSpmmOperator op(&prop);
  const Matrix x = RandomMatrix(16, 4, 12);

  auto record = [&](Matrix* out) {
    auto g = std::make_unique<opgraph::Graph>(Device::kHost);
    opgraph::ValueId prev = opgraph::kNoValue;
    opgraph::ValueId cur = g->Input(&x);
    opgraph::ValueId acc = g->Zero(16, 4);
    for (int k = 0; k < 4; ++k) {
      opgraph::ValueId next = g->Scale(2.0f, g->Spmm(&op, cur));
      if (prev != opgraph::kNoValue) next = g->Axpy(-1.0f, prev, next);
      acc = g->Axpy(0.25f, next, acc);
      prev = cur;
      cur = next;
    }
    g->MarkOutput(acc, out);
    opgraph::FuseSpmmChains(g.get());
    return g;
  };

  Matrix out_a, out_b;
  auto ga = record(&out_a);
  auto gb = record(&out_b);
  const opgraph::Plan pa = opgraph::PlanBuffers(*ga);
  const opgraph::Plan pb = opgraph::PlanBuffers(*gb);
  EXPECT_EQ(pa.pool_buffer, pb.pool_buffer);
  EXPECT_EQ(pa.output_slot, pb.output_slot);
  EXPECT_EQ(pa.buffers.size(), pb.buffers.size());
  EXPECT_EQ(pa.pool_bytes, pb.pool_bytes);
  EXPECT_EQ(pa.output_bytes, pb.output_bytes);
  EXPECT_EQ(pa.planned_peak_bytes, pb.planned_peak_bytes);

  // Same schedule, same plan => same bits.
  ASSERT_TRUE(Execute(*ga, pa).ok());
  ASSERT_TRUE(Execute(*gb, pb).ok());
  EXPECT_TRUE(BitIdentical(out_a, out_b));
}

TEST(OpGraphPlanner, PinsAccumulatorChainIntoOutputSlot) {
  const Matrix x = RandomMatrix(8, 2, 13);

  opgraph::Graph g(Device::kHost);
  const opgraph::ValueId vx = g.Input(&x);
  const opgraph::ValueId z = g.Zero(8, 2);
  const opgraph::ValueId a1 = g.Axpy(1.0f, vx, z);
  const opgraph::ValueId a2 = g.Axpy(2.0f, vx, a1);
  Matrix out;
  g.MarkOutput(a2, &out);

  const opgraph::Plan plan = opgraph::PlanBuffers(g);
  // The whole Zero→Axpy→Axpy chain lives in the caller's matrix: no pool.
  EXPECT_EQ(plan.buffers.size(), 0u);
  EXPECT_EQ(plan.output_slot[static_cast<size_t>(z)], 0);
  EXPECT_EQ(plan.output_slot[static_cast<size_t>(a1)], 0);
  EXPECT_EQ(plan.output_slot[static_cast<size_t>(a2)], 0);
  EXPECT_EQ(plan.pool_bytes, 0u);

  ASSERT_TRUE(Execute(g, plan).ok());
  Matrix want(8, 2, Device::kHost);
  want.Fill(0.0f);
  ops::Axpy(1.0f, x, &want);
  ops::Axpy(2.0f, x, &want);
  EXPECT_TRUE(BitIdentical(out, want));
}

TEST(OpGraphPlanner, RefusesAliasWhenSourceIsStillLive) {
  const sparse::CsrMatrix prop = SmallProp(14, 15);
  const filters::CsrSpmmOperator op(&prop);
  const Matrix x = RandomMatrix(14, 3, 16);

  // Diamond: a feeds both the Scale and the later Axpy, so the Scale must
  // not overwrite it in place even though shapes match.
  opgraph::Graph g(Device::kHost);
  const opgraph::ValueId vx = g.Input(&x);
  const opgraph::ValueId a = g.Spmm(&op, vx);
  const opgraph::ValueId b = g.Scale(0.5f, a);
  const opgraph::ValueId c = g.Axpy(1.0f, a, b);
  Matrix out;
  g.MarkOutput(c, &out);

  const opgraph::Plan plan = opgraph::PlanBuffers(g);
  // `a` needs a pool buffer; `b` dies at the Axpy so the backward pinning
  // pass puts the Scale→Axpy tail straight into the caller's matrix.
  EXPECT_EQ(plan.buffers.size(), 1u);
  EXPECT_EQ(plan.output_slot[static_cast<size_t>(b)], 0);
  EXPECT_EQ(plan.output_slot[static_cast<size_t>(c)], 0);
  EXPECT_GE(plan.pool_buffer[static_cast<size_t>(a)], 0);

  ASSERT_TRUE(Execute(g, plan).ok());
  Matrix spmm(14, 3, Device::kHost);
  prop.SpMM(x, &spmm);
  Matrix want = spmm;
  ops::Scale(0.5f, &want);
  ops::Axpy(1.0f, spmm, &want);
  EXPECT_TRUE(BitIdentical(out, want));
}

TEST(OpGraphPlanner, ReusesPoolBuffersAcrossHops) {
  const sparse::CsrMatrix prop = SmallProp(24, 17);
  const filters::CsrSpmmOperator op(&prop);
  const Matrix x = RandomMatrix(24, 4, 18);

  opgraph::Graph g(Device::kHost);
  opgraph::ValueId prev = opgraph::kNoValue;
  opgraph::ValueId cur = g.Input(&x);
  opgraph::ValueId acc = g.Zero(24, 4);
  const int kHops = 10;
  for (int k = 0; k < kHops; ++k) {
    opgraph::ValueId next = g.Scale(2.0f, g.Spmm(&op, cur));
    if (prev != opgraph::kNoValue) next = g.Axpy(-1.0f, prev, next);
    acc = g.Axpy(0.1f, next, acc);
    prev = cur;
    cur = next;
  }
  Matrix out;
  g.MarkOutput(acc, &out);
  opgraph::FuseSpmmChains(&g);

  const opgraph::Plan plan = opgraph::PlanBuffers(g);
  // The recurrence only ever keeps prev/cur (+ the accumulator, pinned to
  // the output): the pool must stay O(1) in the hop count.
  EXPECT_LE(plan.buffers.size(), 3u);
  EXPECT_EQ(plan.planned_peak_bytes, plan.pool_bytes + plan.output_bytes);
}

// --- executor memory accounting ----------------------------------------------

TEST(OpGraphExecutor, PeakBytesMatchPlanExactly) {
  const sparse::CsrMatrix prop = SmallProp(64, 19);
  for (const Device device : {Device::kHost, Device::kAccel}) {
    const filters::CsrSpmmOperator op(&prop);
    const Matrix x = RandomMatrix(64, 8, 20, device);

    opgraph::Graph g(device);
    opgraph::ValueId prev = opgraph::kNoValue;
    opgraph::ValueId cur = g.Input(&x);
    opgraph::ValueId acc = g.Zero(64, 8);
    for (int k = 0; k < 6; ++k) {
      opgraph::ValueId next = g.Scale(2.0f, g.Spmm(&op, cur));
      if (prev != opgraph::kNoValue) next = g.Axpy(-1.0f, prev, next);
      acc = g.Axpy(0.2f, next, acc);
      prev = cur;
      cur = next;
    }
    Matrix out;
    g.MarkOutput(acc, &out);
    opgraph::FuseSpmmChains(&g);
    const opgraph::Plan plan = opgraph::PlanBuffers(g);

    auto& tracker = DeviceTracker::Global();
    const size_t live0 = tracker.live_bytes(device);
    tracker.ResetPeak();
    ASSERT_TRUE(Execute(g, plan).ok());
    const size_t growth = tracker.peak_bytes(device) - live0;
    // The contract in opgraph/planner.h: exact, not an upper bound.
    EXPECT_EQ(growth, plan.planned_peak_bytes);
  }
  DeviceTracker::Global().ResetPeak();
}

// The paper's Table 1 memory model for the streamed (no-cache) forward: the
// planner recycles the recurrence's buffers, so the accelerator peak growth
// is the same at K = 4, 10 and 16, and it stays within the peak of the eager
// K-hop stream this path replaced, in units of n·F floats (caps measured on
// this fixture's shape before that stream was removed). A planner
// regression, or a Bernstein recording that kept all K²/2 intermediates
// alive, fails here.
TEST(OpGraphMemory, ForwardPeakFlatInHopsWithinEagerCaps) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  graph::GeneratorConfig gc;
  gc.n = 2000;
  gc.avg_degree = 8.0;
  gc.feature_dim = 32;
  gc.seed = 21;
  const graph::Graph g = graph::GenerateSbm(gc);
  const sparse::CsrMatrix prop = sparse::NormalizeAdjacency(g.adj, 0.5);
  const Matrix x = g.features.CloneTo(Device::kAccel);
  filters::FilterContext ctx;
  ctx.prop = &prop;
  ctx.device = Device::kAccel;
  const size_t unit = static_cast<size_t>(x.rows()) *
                      static_cast<size_t>(x.cols()) * sizeof(float);

  const std::map<std::string, size_t> caps = {
      {"chebyshev", 5}, {"ppr", 5}, {"gnn_lf_hf", 6}, {"g2cn", 4},
      {"bernstein", 4}};
  for (const auto& [name, cap] : caps) {
    std::vector<size_t> peaks;
    for (const int hops : {4, 10, 16}) {
      auto filter_or = filters::CreateFilter(name, hops, {}, x.cols());
      ASSERT_TRUE(filter_or.ok()) << name;
      auto filter = filter_or.MoveValue();
      Rng rng(static_cast<uint64_t>(hops));
      filter->ResetParameters(&rng);
      Matrix y;
      const size_t live0 = tracker.live_bytes(Device::kAccel);
      tracker.ResetPeak();
      filter->Forward(ctx, x, &y, /*cache=*/false);
      peaks.push_back(tracker.peak_bytes(Device::kAccel) - live0);
      EXPECT_LE(peaks.back(), cap * unit)
          << name << " K=" << hops << ": peak " << peaks.back() / unit
          << " n·F floats, cap " << cap;
    }
    EXPECT_EQ(peaks[0], peaks[1]) << name << ": K=4 vs K=10";
    EXPECT_EQ(peaks[1], peaks[2]) << name << ": K=10 vs K=16";
  }
  EXPECT_FALSE(tracker.accel_oom());
  tracker.ResetAll();
}

}  // namespace
}  // namespace sgnn

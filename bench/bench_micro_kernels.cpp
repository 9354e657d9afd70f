// Google-benchmark microbenchmarks for the kernels underlying the paper's
// complexity model, plus the ablation of the basis-term caching design
// choice called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include "core/registry.h"
#include "graph/datasets.h"
#include "graph/generator.h"
#include "sparse/adjacency.h"
#include "sparse/edge_index.h"
#include "tensor/ops.h"

namespace {

using namespace sgnn;

graph::Graph MakeGraph(int64_t n, double deg) {
  graph::GeneratorConfig gc;
  gc.n = n;
  gc.avg_degree = deg;
  gc.num_classes = 4;
  gc.feature_dim = 32;
  gc.seed = 77;
  return graph::GenerateSbm(gc);
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillNormal(&rng);
  return m;
}

/// O(mF) propagation: CSR SpMM (the "SP backend"), at n nodes and F
/// features. F = 8/16/32/64 run the register-row kernels
/// (sparse/spmm_kernels.h).
void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t f = state.range(1);
  graph::Graph g = MakeGraph(n, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  const Matrix x = RandomMatrix(n, f, 5);
  Matrix y(n, f);
  for (auto _ : state) {
    norm.SpMM(x, &y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * norm.nnz() * f);
}
BENCHMARK(BM_SpMM)
    ->Args({2000, 32})
    ->Args({8000, 32})
    ->Args({32000, 16})
    ->Args({32000, 32})
    ->Args({32000, 64});

/// One Chebyshev hop, T_k = 2·Ã·T_{k-1} − T_{k-2}, at n = 32000 and F = 32:
/// fused (arg 1) applies the tail in the SpMM's row store; unfused (arg 0)
/// replays SpMM, Scale and Axpy as three passes over n x F.
void BM_SpmmAffine(benchmark::State& state) {
  const int64_t n = 32000, f = 32;
  const bool fused = state.range(0) != 0;
  graph::Graph g = MakeGraph(n, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  const Matrix cur = RandomMatrix(n, f, 5);
  const Matrix prev = RandomMatrix(n, f, 6);
  Matrix y(n, f);
  for (auto _ : state) {
    if (fused) {
      norm.SpMMAffine(cur, 2.0f, &prev, -1.0f, nullptr, 0.0f, &y);
    } else {
      norm.SpMM(cur, &y);
      ops::Scale(2.0f, &y);
      ops::Axpy(-1.0f, prev, &y);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(fused ? "fused" : "unfused");
  state.SetItemsProcessed(state.iterations() * norm.nnz() * f);
}
BENCHMARK(BM_SpmmAffine)->Arg(0)->Arg(1);

/// O(mF) propagation with an O(mF) message buffer: the "EI backend".
void BM_EdgeIndexPropagate(benchmark::State& state) {
  const int64_t n = state.range(0);
  graph::Graph g = MakeGraph(n, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  sparse::EdgeIndex ei(norm);
  Matrix y(n, 32);
  for (auto _ : state) {
    ei.PropagateGatherScatter(g.features, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * ei.num_edges() * 32);
}
BENCHMARK(BM_EdgeIndexPropagate)->Arg(2000)->Arg(8000);

/// O(nF^2) transformation (dense GEMM with a weight matrix).
void BM_Transformation(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Matrix x(n, 64), w(64, 64), y(n, 64);
  x.FillNormal(&rng);
  w.FillNormal(&rng);
  for (auto _ : state) {
    ops::Gemm(x, w, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_Transformation)->Arg(2000)->Arg(8000);

/// Batch rows of one MB φ1 step (models::TrainMiniBatch's batch_size).
constexpr int64_t kPhi1Batch = 4096;

/// The three GEMMs of one MB φ1 layer (nn::Linear) at batch 4096. Args are
/// the layer's (in, out) widths, 32->64 and 64->32 in the MB epoch; items
/// are multiply-adds, batch * in * out for each product. Gemm and
/// GemmTransA skip zeros of x, so they take a third arg, the percent of
/// x's entries set to zero: 0 is dense, and 60 is the density of the
/// layer-2 input after ReLU (half zero) and dropout 0.2.

/// Normal draws with each entry zero with probability zeros_pct / 100.
Matrix SparseInput(int64_t rows, int64_t cols, int64_t zeros_pct,
                   uint64_t seed) {
  Matrix x = RandomMatrix(rows, cols, seed);
  Rng rng(seed + 100);
  for (int64_t i = 0; i < x.size(); ++i) {
    if (rng.Uniform() * 100.0 < static_cast<double>(zeros_pct)) {
      x.data()[i] = 0.0f;
    }
  }
  return x;
}

/// Forward: y = x W.
void BM_Gemm(benchmark::State& state) {
  const int64_t in = state.range(0), out = state.range(1);
  const Matrix x = SparseInput(kPhi1Batch, in, state.range(2), 1);
  const Matrix w = RandomMatrix(in, out, 2);
  Matrix y(kPhi1Batch, out);
  for (auto _ : state) {
    ops::Gemm(x, w, &y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kPhi1Batch * in * out);
}
BENCHMARK(BM_Gemm)->Args({32, 64, 0})->Args({64, 32, 0})->Args({64, 32, 60});

/// Weight gradient: dW = x^T dY.
void BM_GemmTransA(benchmark::State& state) {
  const int64_t in = state.range(0), out = state.range(1);
  const Matrix x = SparseInput(kPhi1Batch, in, state.range(2), 1);
  const Matrix dy = RandomMatrix(kPhi1Batch, out, 3);
  Matrix dw(in, out);
  for (auto _ : state) {
    ops::GemmTransA(x, dy, &dw);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kPhi1Batch * in * out);
}
BENCHMARK(BM_GemmTransA)
    ->Args({32, 64, 0})
    ->Args({64, 32, 0})
    ->Args({64, 32, 60});

/// Input gradient: dX = dY W^T.
void BM_GemmTransB(benchmark::State& state) {
  const int64_t in = state.range(0), out = state.range(1);
  const Matrix dy = RandomMatrix(kPhi1Batch, out, 3);
  const Matrix w = RandomMatrix(in, out, 2);
  Matrix dx(kPhi1Batch, in);
  for (auto _ : state) {
    ops::GemmTransB(dy, w, &dx);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kPhi1Batch * in * out);
}
BENCHMARK(BM_GemmTransB)->Args({32, 64})->Args({64, 32});

/// Per-type filter forward cost on the same graph (Table 1 Time column).
void BM_FilterForward(benchmark::State& state,
                      const std::string& filter_name) {
  graph::Graph g = MakeGraph(4000, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  auto filter = filters::CreateFilter(filter_name, 10, {}, 32).MoveValue();
  filters::FilterContext ctx{&norm, Device::kHost};
  Matrix y;
  for (auto _ : state) {
    filter->Forward(ctx, g.features, &y, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK_CAPTURE(BM_FilterForward, ppr, "ppr");
BENCHMARK_CAPTURE(BM_FilterForward, chebyshev, "chebyshev");
BENCHMARK_CAPTURE(BM_FilterForward, bernstein, "bernstein");
BENCHMARK_CAPTURE(BM_FilterForward, optbasis, "optbasis");
BENCHMARK_CAPTURE(BM_FilterForward, figure, "figure");

/// Ablation: forward with basis caching (variable-filter training path)
/// vs streaming (fixed/inference path) — time and memory trade-off.
void BM_ForwardCached(benchmark::State& state) {
  graph::Graph g = MakeGraph(4000, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  auto filter = filters::CreateFilter("chebyshev", 10, {}, 32).MoveValue();
  filters::FilterContext ctx{&norm, Device::kHost};
  const bool cache = state.range(0) != 0;
  Matrix y;
  auto& tracker = DeviceTracker::Global();
  tracker.ResetPeak();
  for (auto _ : state) {
    filter->Forward(ctx, g.features, &y, cache);
    filter->ClearCache();
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["peak_host_mb"] = static_cast<double>(
      tracker.peak_bytes(Device::kHost)) / 1e6;
}
BENCHMARK(BM_ForwardCached)->Arg(0)->Arg(1);

/// Graph normalization cost over ρ (all equal; sanity for RQ9 sweeps).
void BM_Normalize(benchmark::State& state) {
  graph::Graph g = MakeGraph(8000, 10.0);
  for (auto _ : state) {
    auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
    benchmark::DoNotOptimize(norm.nnz());
  }
}
BENCHMARK(BM_Normalize);

/// The adjacency build alone: count, scatter, per-row sort and dedupe of a
/// products_sim-sized edge list (n nodes, n · degree / 2 edges) with uniform
/// random endpoints.
void BM_BuildAdjacency(benchmark::State& state) {
  const graph::DatasetSpec spec = graph::FindDataset("products_sim").value();
  const int64_t n = spec.n;
  const auto m =
      static_cast<int64_t>(spec.avg_degree * static_cast<double>(n) / 2.0);
  Rng rng(11);
  sparse::EdgeList edges(static_cast<size_t>(m));
  for (auto& [u, v] : edges) {
    u = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    v = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(n)));
  }
  for (auto _ : state) {
    auto adj = sparse::BuildAdjacency(n, edges, /*add_self_loops=*/true);
    benchmark::DoNotOptimize(adj.value().nnz());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_BuildAdjacency)->Unit(benchmark::kMillisecond);

/// The whole products_sim generation: labels, propensities, edge sampling,
/// the adjacency build and the features.
void BM_GenerateSbm(benchmark::State& state) {
  const graph::DatasetSpec spec = graph::FindDataset("products_sim").value();
  for (auto _ : state) {
    graph::Graph g = graph::MakeDataset(spec, 1);
    benchmark::DoNotOptimize(g.adj.nnz());
  }
}
BENCHMARK(BM_GenerateSbm)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

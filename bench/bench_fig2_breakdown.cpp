// Reproduces paper Figure 2: per-stage time and per-device memory breakdown
// of full-batch vs mini-batch training on medium/large datasets.
// RQ1/RQ2: propagation dominates on larger graphs; MB shifts memory to RAM
// and wins wall-clock there.

#include "bench/bench_common.h"
#include "tensor/parallel.h"
#include "eval/table.h"
#include "graph/generator.h"
#include "tensor/ops.h"

int main() {
  using namespace sgnn;
  bench::Banner("Figure 2",
                "FB vs MB stage breakdown. Series per (dataset, filter): "
                "train/precompute/infer time and RAM vs accel peak memory");

  std::vector<std::string> datasets =
      bench::FullMode()
          ? std::vector<std::string>{"penn94_sim", "arxiv_sim", "pokec_sim",
                                     "snap_patents_sim"}
          : std::vector<std::string>{"penn94_sim", "pokec_sim"};

  runtime::Supervisor sup = bench::MakeSupervisor("fig2");

  eval::Table table({"Dataset", "Filter", "Scheme", "Pre ms", "Train ms/ep",
                     "Infer ms", "RAM", "Accel", "Speedup"});
  for (const auto& ds : datasets) {
    const auto spec = graph::FindDataset(ds).value();
    graph::Graph g = graph::MakeDataset(spec, 1);
    graph::Splits splits = graph::RandomSplits(g.n, 1);
    for (const auto& name : bench::BenchFilters()) {
      models::TrainConfig fb_cfg = bench::UniversalConfig(false);
      fb_cfg.epochs = 3;
      fb_cfg.timing_only = true;
      const auto fb = sup.RunTraining({ds, name, "fb", 1}, g, splits,
                                      spec.metric, fb_cfg);
      if (fb.ok()) {
        table.AddRow({ds, name, "FB", "-",
                      eval::Fmt(fb.stats.train_ms_per_epoch, 1),
                      eval::Fmt(fb.stats.infer_ms, 1),
                      FormatBytes(fb.stats.peak_ram_bytes),
                      FormatBytes(fb.stats.peak_accel_bytes), "-"});
      } else {
        table.AddRow({ds, name, "FB", "-", bench::StatusCell(fb), "-", "-",
                      "-", "-"});
      }
      if (!bench::ProbeMiniBatch(&sup, {ds, name, "mb", 1}, name)) continue;
      models::TrainConfig mb_cfg = bench::UniversalConfig(true);
      mb_cfg.epochs = 3;
      mb_cfg.timing_only = true;
      mb_cfg.batch_size = g.n > 50000 ? 20000 : 4096;
      const auto mb = sup.RunTraining({ds, name, "mb", 1}, g, splits,
                                      spec.metric, mb_cfg);
      if (!mb.ok()) {
        table.AddRow({ds, name, "MB", bench::StatusCell(mb), "-", "-", "-",
                      "-", "-"});
        continue;
      }
      const double speedup = mb.stats.train_ms_per_epoch > 0
                                 ? fb.stats.train_ms_per_epoch /
                                       mb.stats.train_ms_per_epoch
                                 : 0.0;
      table.AddRow({ds, name, "MB", eval::Fmt(mb.stats.precompute_ms, 1),
                    eval::Fmt(mb.stats.train_ms_per_epoch, 1),
                    eval::Fmt(mb.stats.infer_ms, 1),
                    FormatBytes(mb.stats.peak_ram_bytes),
                    FormatBytes(mb.stats.peak_accel_bytes),
                    eval::Fmt(speedup, 2) + "x"});
    }
    std::printf("[done] %s\n", ds.c_str());
  }
  std::printf("\n");
  table.Print();

  // Kernel thread-scaling sweep on a >=100k-node synthetic graph: raw
  // SpMM/GEMM time at 1/2/4 host threads (plus the detected count when
  // larger), independent of any training loop. Outputs are bit-identical
  // at every thread count; see docs/PERFORMANCE.md for how to read the
  // speedup column (it tops out at the physical core count — ~1.0x here on
  // a single-core box).
  {
    graph::GeneratorConfig gc;
    gc.n = 120000;
    gc.avg_degree = 10.0;
    gc.feature_dim = 64;
    graph::Graph big = graph::GenerateSbm(gc);
    sparse::CsrMatrix norm = sparse::NormalizeAdjacency(big.adj, 0.5);
    Matrix weights(big.features.cols(), 64, Device::kHost);
    for (int64_t i = 0; i < weights.size(); ++i) {
      weights.data()[i] = 0.01f * static_cast<float>(i % 17) - 0.08f;
    }
    Matrix spmm_out(big.n, big.features.cols(), Device::kHost);
    Matrix gemm_out(big.n, 64, Device::kHost);

    std::vector<int> counts = {1, 2, 4};
    if (parallel::NumThreads() > 4) counts.push_back(parallel::NumThreads());
    eval::Table sweep({"Threads", "SpMM ms", "SpMM speedup", "GEMM ms",
                       "GEMM speedup"});
    double spmm_base = 0.0, gemm_base = 0.0;
    for (const int threads : counts) {
      parallel::SetNumThreads(threads);
      constexpr int kReps = 3;
      eval::Stopwatch spmm_sw;
      for (int r = 0; r < kReps; ++r) norm.SpMM(big.features, &spmm_out);
      const double spmm_ms = spmm_sw.ElapsedMs() / kReps;
      eval::Stopwatch gemm_sw;
      for (int r = 0; r < kReps; ++r) {
        ops::Gemm(big.features, weights, &gemm_out);
      }
      const double gemm_ms = gemm_sw.ElapsedMs() / kReps;
      if (spmm_base == 0.0) spmm_base = spmm_ms;
      if (gemm_base == 0.0) gemm_base = gemm_ms;
      sweep.AddRow({std::to_string(threads), eval::Fmt(spmm_ms, 1),
                    eval::Fmt(spmm_base / spmm_ms, 2) + "x",
                    eval::Fmt(gemm_ms, 1),
                    eval::Fmt(gemm_base / gemm_ms, 2) + "x"});
    }
    parallel::SetNumThreads(0);  // back to SGNN_NUM_THREADS / hardware
    std::printf("\nKernel thread scaling (synthetic DC-SBM, n=%lld, "
                "nnz=%lld, F=64):\n",
                static_cast<long long>(big.n),
                static_cast<long long>(norm.nnz()));
    sweep.Print();
  }
  return 0;
}

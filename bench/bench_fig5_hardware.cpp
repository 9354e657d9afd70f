// Reproduces paper Figure 5: time efficiency on different hardware. S1 is
// the measured machine; S2 (slower CPU, faster accelerator) is replayed
// through the device-model cost multipliers (see DESIGN.md substitution).
// Paper shape: transformation-bound MB fixed filters speed up on S2 while
// propagation-bound FB / MB-variable runs slow down.

#include "bench/bench_common.h"
#include "tensor/parallel.h"
#include "eval/table.h"
#include "shard/plan.h"
#include "tensor/ops.h"

namespace {

/// Hardware profile as relative speed factors (time divides by these).
struct Hardware {
  const char* name;
  double host_speed;
  double accel_speed;
};

/// Thread counts for the scaling sweep: 1/2/4 plus the machine's detected
/// count when it is larger (docs/PERFORMANCE.md "Thread-scaling sweep").
std::vector<int> SweepThreadCounts() {
  std::vector<int> counts = {1, 2, 4};
  const int hw = sgnn::parallel::NumThreads();
  if (hw > 4) counts.push_back(hw);
  return counts;
}

}  // namespace

int main() {
  using namespace sgnn;
  bench::Banner("Figure 5",
                "Hardware comparison on penn94_sim via the device cost "
                "model: FB runs propagation on the accelerator; MB "
                "propagates on the host during precompute and transforms on "
                "the accelerator");

  const Hardware s1{"S1 (2.4GHz CPU + A30-like)", 1.0, 1.0};
  const Hardware s2{"S2 (2.2GHz CPU + A5000-like)", 0.92, 1.6};

  const auto spec = graph::FindDataset("penn94_sim").value();
  graph::Graph g = graph::MakeDataset(spec, 1);
  graph::Splits splits = graph::RandomSplits(g.n, 1);

  runtime::Supervisor sup = bench::MakeSupervisor("fig5");

  eval::Table table({"Filter", "Scheme", "Stage", s1.name, s2.name});
  for (const auto& name : bench::BenchFilters()) {
    // FB: measure one epoch; propagation share estimated from a pure filter
    // pass vs the full epoch. The pure pass is a derived scalar, so it is
    // journaled as an extra for resume.
    models::TrainConfig cfg = bench::UniversalConfig(false);
    cfg.epochs = 3;
    cfg.timing_only = true;
    double prop_ms_live = 0.0;
    const auto fb = sup.Run(
        {"penn94_sim", name, "fb", 1},
        [&] {
          models::TrainResult tr;
          auto filter_or = filters::CreateFilter(
              name, bench::UniversalHops(), {}, g.features.cols());
          if (!filter_or.ok()) {
            tr.status = filter_or.status();
            return tr;
          }
          auto filter = filter_or.MoveValue();
          tr = models::TrainFullBatch(g, splits, spec.metric, filter.get(),
                                      cfg);
          // Pure propagation time: filter forward alone.
          sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, cfg.rho);
          filters::FilterContext ctx{&norm, Device::kHost};
          eval::Stopwatch sw;
          Matrix y;
          filter->Forward(ctx, g.features, &y, false);
          prop_ms_live = sw.ElapsedMs();
          return tr;
        },
        [&](const models::TrainResult&, runtime::CellRecord* rec) {
          rec->extras.emplace_back("prop_ms", prop_ms_live);
        });
    if (!fb.ok()) {
      table.AddRow({name, "FB", "epoch", bench::StatusCell(fb), "-"});
      continue;
    }
    const double prop_ms = fb.Extra("prop_ms", 0.0);
    const double fb_epoch = fb.stats.train_ms_per_epoch;
    const double fb_prop = std::min(fb_epoch, 2.0 * prop_ms);  // fwd + bwd
    const double fb_trans = std::max(0.0, fb_epoch - fb_prop);
    const double fb_s2 = fb_prop / s2.accel_speed + fb_trans / s2.accel_speed;
    table.AddRow({name, "FB", "epoch", eval::Fmt(fb_epoch, 2),
                  eval::Fmt(fb_s2, 2)});

    if (!bench::ProbeMiniBatch(&sup, {"penn94_sim", name, "mb", 1}, name)) {
      continue;
    }
    models::TrainConfig mb_cfg = bench::UniversalConfig(true);
    mb_cfg.epochs = 3;
    mb_cfg.timing_only = true;
    const auto mb = sup.RunTraining({"penn94_sim", name, "mb", 1}, g, splits,
                                    spec.metric, mb_cfg);
    if (!mb.ok()) {
      table.AddRow({name, "MB", "precompute", bench::StatusCell(mb), "-"});
      continue;
    }
    // MB: precompute is host-bound, per-epoch training is accelerator-bound.
    const double mb_pre_s2 = mb.stats.precompute_ms / s2.host_speed;
    const double mb_train_s2 = mb.stats.train_ms_per_epoch / s2.accel_speed;
    table.AddRow({name, "MB", "precompute", eval::Fmt(mb.stats.precompute_ms, 2),
                  eval::Fmt(mb_pre_s2, 2)});
    table.AddRow({name, "MB", "epoch", eval::Fmt(mb.stats.train_ms_per_epoch, 2),
                  eval::Fmt(mb_train_s2, 2)});
    std::printf("[done] %s\n", name.c_str());
  }
  std::printf("\n");
  table.Print();

  // Thread-scaling sweep: the same hot kernels at 1/2/4/N host threads via
  // parallel::SetNumThreads. Results are bit-identical across rows (see
  // docs/PERFORMANCE.md); only the timings change. On a single-core box the
  // speedup column stays ~1.0x — the sweep reports what it measures.
  {
    sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
    Matrix weights(g.features.cols(), 64, Device::kHost);
    for (int64_t i = 0; i < weights.size(); ++i) {
      weights.data()[i] = 0.01f * static_cast<float>(i % 17) - 0.08f;
    }
    Matrix spmm_out(g.n, g.features.cols(), Device::kHost);
    Matrix gemm_out(g.n, 64, Device::kHost);
    auto filter_or =
        filters::CreateFilter("linear", bench::UniversalHops(), {},
                              g.features.cols());

    eval::Table sweep({"Threads", "SpMM ms", "GEMM ms", "FB epoch ms",
                       "Epoch speedup"});
    double epoch_base = 0.0;
    for (const int threads : SweepThreadCounts()) {
      parallel::SetNumThreads(threads);
      constexpr int kReps = 3;
      eval::Stopwatch spmm_sw;
      for (int r = 0; r < kReps; ++r) norm.SpMM(g.features, &spmm_out);
      const double spmm_ms = spmm_sw.ElapsedMs() / kReps;
      eval::Stopwatch gemm_sw;
      for (int r = 0; r < kReps; ++r) ops::Gemm(g.features, weights, &gemm_out);
      const double gemm_ms = gemm_sw.ElapsedMs() / kReps;
      double epoch_ms = 0.0;
      if (filter_or.ok()) {
        models::TrainConfig cfg = bench::UniversalConfig(false);
        cfg.epochs = 3;
        cfg.timing_only = true;
        const auto tr = models::TrainFullBatch(g, splits, spec.metric,
                                               filter_or.value().get(), cfg);
        epoch_ms = tr.stats.train_ms_per_epoch;
      }
      if (epoch_base == 0.0) epoch_base = epoch_ms;
      sweep.AddRow({std::to_string(threads), eval::Fmt(spmm_ms, 2),
                    eval::Fmt(gemm_ms, 2), eval::Fmt(epoch_ms, 2),
                    epoch_ms > 0.0 ? eval::Fmt(epoch_base / epoch_ms, 2) + "x"
                                   : "-"});
    }
    parallel::SetNumThreads(0);  // back to SGNN_NUM_THREADS / hardware
    std::printf("\nThread scaling (penn94_sim, filter=linear):\n");
    sweep.Print();
  }

  // Shard sweep: FB epoch time at K=1,2,4,8 edge-cut shards, with the
  // partition quality (edge-cut and halo fractions, docs/SHARDING.md)
  // journaled as x_edge_cut / x_halo_fraction extras per point so the
  // partitioner's quality is visible alongside the runtime it buys.
  {
    eval::Table shard_sweep(
        {"Shards", "Epoch ms", "Cut %", "Halo %", "Spills"});
    for (const int k : {1, 2, 4, 8}) {
      runtime::CellKey key{"penn94_sim", "linear", "fb", 1,
                           "K=" + std::to_string(k)};
      runtime::CellRecord rec;
      if (const auto* done = sup.Find(key)) {
        rec = *done;
      } else {
        models::TrainConfig cfg = bench::UniversalConfig(false);
        cfg.epochs = 3;
        cfg.timing_only = true;
        cfg.num_shards = k;
        double edge_cut = 0.0;
        double halo_fraction = 0.0;
        if (k > 1) {
          // Same operator, partition options, and seed as the trainer's
          // sharded path, so the journaled quality describes the actual run.
          // BuildShardPlan (not ComputeEdgeCut) fills the halo counters.
          const sparse::CsrMatrix norm =
              sparse::NormalizeAdjacency(g.adj, cfg.rho);
          const shard::EdgeCutStats stats =
              shard::BuildShardPlan(norm,
                                    shard::PartitionOptions{k, cfg.seed})
                  .stats;
          edge_cut = stats.cut_fraction();
          halo_fraction = stats.halo_fraction();
        }
        rec = sup.RunTraining(
            key, g, splits, spec.metric, cfg, {},
            [&](const models::TrainResult&, runtime::CellRecord* out) {
              out->extras.emplace_back("edge_cut", edge_cut);
              out->extras.emplace_back("halo_fraction", halo_fraction);
            });
      }
      if (!rec.ok()) {
        shard_sweep.AddRow(
            {std::to_string(k), bench::StatusCell(rec), "-", "-", "-"});
        continue;
      }
      shard_sweep.AddRow(
          {std::to_string(k), eval::Fmt(rec.stats.train_ms_per_epoch, 2),
           eval::Fmt(100.0 * rec.Extra("edge_cut", 0.0), 1),
           eval::Fmt(100.0 * rec.Extra("halo_fraction", 0.0), 1),
           std::to_string(rec.stats.shard_spills)});
    }
    std::printf("\nShard sweep (penn94_sim, filter=linear, fb):\n");
    shard_sweep.Print();
  }
  return 0;
}

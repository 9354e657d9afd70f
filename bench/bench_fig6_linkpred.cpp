// Reproduces paper Figure 6: mini-batch link prediction efficiency on a
// PPA-like graph. Paper shape: the edge-wise transformation (κ·m samples
// through the MLP scorer) dominates time; accelerator memory stays
// batch-bounded.

#include "bench/bench_common.h"
#include "eval/table.h"
#include "graph/generator.h"
#include "models/linkpred.h"

int main() {
  using namespace sgnn;
  bench::Banner("Figure 6",
                "MB link prediction on ppa_sim (synthetic protein-network "
                "counterpart): precompute vs train time, AUC, memory");

  graph::GeneratorConfig gc;
  gc.n = bench::FullMode() ? 60000 : 8000;
  gc.avg_degree = 12.0;
  gc.num_classes = 8;
  gc.homophily = 0.7;
  gc.feature_dim = 32;
  gc.noise = 2.0;
  gc.seed = 33;
  graph::Graph g = graph::GenerateSbm(gc);
  std::printf("ppa_sim: n=%lld m=%lld\n", static_cast<long long>(g.n),
              static_cast<long long>(g.num_edges()));

  runtime::Supervisor sup = bench::MakeSupervisor("fig6");

  eval::Table table({"Filter", "AUC", "Pre ms", "Train ms/ep", "Infer ms",
                     "RAM", "Accel"});
  for (const auto& name : bench::BenchFilters()) {
    if (!bench::ProbeMiniBatch(&sup, {"ppa_sim", name, "mb", 1, "linkpred"},
                               name)) {
      continue;
    }
    const auto rec = sup.Run(
        {"ppa_sim", name, "mb", 1, "linkpred"},
        [&] {
          auto filter_or = filters::CreateFilter(
              name, bench::UniversalHops(), {}, g.features.cols());
          if (!filter_or.ok()) {
            models::TrainResult tr;
            tr.status = filter_or.status();
            return tr;
          }
          auto filter = filter_or.MoveValue();
          models::LinkPredConfig cfg;
          cfg.base = bench::UniversalConfig(true);
          cfg.base.epochs = bench::FullMode() ? 10 : 3;
          cfg.neg_ratio = 2;
          return models::TrainLinkPrediction(g, filter.get(), cfg);
        });
    if (rec.ok()) {
      table.AddRow({name, eval::Fmt(rec.test_metric, 3),
                    eval::Fmt(rec.stats.precompute_ms, 1),
                    eval::Fmt(rec.stats.train_ms_per_epoch, 1),
                    eval::Fmt(rec.stats.infer_ms, 1),
                    FormatBytes(rec.stats.peak_ram_bytes),
                    FormatBytes(rec.stats.peak_accel_bytes)});
    } else {
      table.AddRow({name, bench::StatusCell(rec), "-", "-", "-", "-", "-"});
    }
    std::printf("[done] %s\n", name.c_str());
  }
  std::printf("\n");
  table.Print();
  return 0;
}

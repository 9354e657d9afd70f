// Ablation (paper Table 2 / Section 2.2): the three learning schemes.
// Full-batch (FB), graph partition (GP), and decoupled mini-batch (MB)
// trade memory and expressiveness differently: GP bounds memory by the part
// size but severs topology and loses accuracy, especially under heterophily;
// MB keeps full-graph propagation and full accuracy.

#include "bench/bench_common.h"
#include "eval/table.h"
#include "models/partition.h"
#include "shard/partition.h"

int main() {
  using namespace sgnn;
  bench::Banner("Scheme ablation (Table 2)",
                "FB vs GP vs MB: accuracy, per-epoch time, accel peak, and "
                "the GP edge-cut fraction that explains its accuracy loss");

  const std::vector<std::string> datasets = {"cora_sim", "roman_sim"};
  const std::vector<std::string> filter_names = {"ppr", "chebyshev"};

  runtime::Supervisor sup = bench::MakeSupervisor("ablation_schemes");

  eval::Table table({"Dataset", "Filter", "Scheme", "Test", "Train ms/ep",
                     "Accel", "Cut %"});
  for (const auto& ds : datasets) {
    const auto spec = graph::FindDataset(ds).value();
    graph::Graph g = graph::MakeDataset(spec, 1);
    graph::Splits splits = graph::RandomSplits(g.n, 1);
    const int parts = 8;
    for (const auto& name : filter_names) {
      models::TrainConfig cfg = bench::UniversalConfig(false);
      cfg.epochs = bench::FullMode() ? 150 : 50;
      // The partition GP trains on (same partitioner, count and seed);
      // cut entries over all adjacency entries, self-loops included, as in
      // the fig3/fig5 shard tables.
      const double cut =
          shard::ComputeEdgeCut(
              g.adj, shard::GreedyBfsPartition(g.adj, {parts, cfg.seed}))
              .cut_fraction();
      {
        const auto r =
            sup.RunTraining({ds, name, "fb", 1}, g, splits, spec.metric, cfg);
        table.AddRow({ds, name, "FB",
                      bench::CellText(r, eval::Fmt(r.test_metric * 100, 1)),
                      eval::Fmt(r.stats.train_ms_per_epoch, 1),
                      FormatBytes(r.stats.peak_accel_bytes), "-"});
      }
      {
        const auto r = sup.Run({ds, name, "gp", 1}, [&] {
          models::TrainResult tr;
          auto f = filters::CreateFilter(name, bench::UniversalHops(), {},
                                         g.features.cols());
          if (!f.ok()) {
            tr.status = f.status();
            return tr;
          }
          auto filter = f.MoveValue();
          models::PartitionConfig pcfg;
          pcfg.base = cfg;
          pcfg.num_parts = parts;
          return models::TrainGraphPartition(g, splits, spec.metric,
                                             filter.get(), pcfg);
        });
        table.AddRow({ds, name, "GP",
                      bench::CellText(r, eval::Fmt(r.test_metric * 100, 1)),
                      eval::Fmt(r.stats.train_ms_per_epoch, 1),
                      FormatBytes(r.stats.peak_accel_bytes),
                      eval::Fmt(cut * 100, 1)});
      }
      {
        models::TrainConfig mcfg = bench::UniversalConfig(true);
        mcfg.epochs = cfg.epochs;
        const auto r = sup.RunTraining({ds, name, "mb", 1}, g, splits,
                                       spec.metric, mcfg);
        table.AddRow({ds, name, "MB",
                      bench::CellText(r, eval::Fmt(r.test_metric * 100, 1)),
                      eval::Fmt(r.stats.train_ms_per_epoch, 1),
                      FormatBytes(r.stats.peak_accel_bytes), "-"});
      }
      std::printf("[done] %s %s\n", ds.c_str(), name.c_str());
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}

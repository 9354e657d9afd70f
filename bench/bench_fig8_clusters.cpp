// Reproduces paper Figure 8 (t-SNE cluster visualisation) quantitatively:
// PCA-projected embeddings scored by silhouette and intra/inter distance
// ratio. Paper shape: filters that produce well-separated clusters are the
// ones that classify well on that dataset.

#include "bench/bench_common.h"
#include "eval/analysis.h"
#include "eval/table.h"

int main() {
  using namespace sgnn;
  bench::Banner("Figure 8",
                "Cluster separability of filtered embeddings (silhouette in "
                "[-1,1], higher = sharper clusters; intra/inter lower = "
                "better) vs test accuracy");

  const std::vector<std::string> datasets = {"cora_sim", "chameleon_sim"};
  const std::vector<std::string> filter_names = {
      "impulse", "ppr", "monomial", "chebyshev", "chebinterp", "jacobi"};

  runtime::Supervisor sup = bench::MakeSupervisor("fig8");

  eval::Table table({"Dataset", "Filter", "Silhouette", "Intra/Inter",
                     "Test acc"});
  for (const auto& ds : datasets) {
    const auto spec = graph::FindDataset(ds).value();
    graph::Graph g = graph::MakeDataset(spec, 1);
    graph::Splits splits = graph::RandomSplits(g.n, 1);
    for (const auto& name : filter_names) {
      const auto rec = sup.Run(
          {ds, name, "fb", 1, "clusters"},
          [&] {
            models::TrainResult tr;
            auto filter_or = filters::CreateFilter(
                name, bench::UniversalHops(), {}, g.features.cols());
            if (!filter_or.ok()) {
              tr.status = filter_or.status();
              return tr;
            }
            auto filter = filter_or.MoveValue();
            models::TrainConfig cfg = bench::UniversalConfig(false);
            cfg.epochs = bench::FullMode() ? 150 : 50;
            return models::TrainFullBatch(g, splits, spec.metric,
                                          filter.get(), cfg,
                                          /*capture_embeddings=*/true);
          },
          [&](const models::TrainResult& r, runtime::CellRecord* out) {
            // Embeddings are too big to journal; score them now and keep the
            // derived scalars so resumed cells rebuild the same row.
            Rng rng(55);
            Matrix proj = eval::PcaProject(r.embeddings, 2, &rng);
            out->extras.emplace_back(
                "sil", eval::SilhouetteScore(proj, g.labels, &rng));
            out->extras.emplace_back(
                "ratio", eval::IntraInterRatio(proj, g.labels, &rng));
          });
      if (rec.ok()) {
        table.AddRow({ds, name, eval::Fmt(rec.Extra("sil", 0.0), 3),
                      eval::Fmt(rec.Extra("ratio", 0.0), 3),
                      eval::Fmt(rec.test_metric * 100.0, 1)});
      } else {
        table.AddRow({ds, name, bench::StatusCell(rec), "-", "-"});
      }
      std::printf("[done] %s %s\n", ds.c_str(), name.c_str());
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}

// Reproduces paper Table 7: average R² of graph signal regression on five
// spectral target functions (BAND / COMBINE / HIGH / LOW / REJECT).

#include "bench/bench_common.h"
#include "eval/signals.h"
#include "eval/table.h"
#include "graph/generator.h"
#include "models/regression.h"

int main() {
  using namespace sgnn;
  bench::Banner("Table 7",
                "Signal regression R² (x100). Paper shape: most filters fit "
                "LOW/REJECT well; Horner and OptBasis stand out on "
                "high-frequency targets; OptBasis leads everywhere");

  // Small graph so the exact eigendecomposition is cheap.
  graph::GeneratorConfig gc;
  gc.n = bench::FullMode() ? 800 : 300;
  gc.avg_degree = 8.0;
  gc.num_classes = 4;
  gc.feature_dim = 4;
  gc.seed = 5;
  graph::Graph g = graph::GenerateSbm(gc);

  models::RegressionConfig cfg;
  cfg.epochs = bench::FullMode() ? 120 : 60;
  models::RegressionProblem problem = models::BuildRegressionProblem(g, cfg);

  // Table 7 covers fixed + variable filters.
  std::vector<std::string> names =
      filters::FilterNamesByType(filters::FilterType::kFixed);
  for (const auto& v :
       filters::FilterNamesByType(filters::FilterType::kVariable)) {
    names.push_back(v);
  }

  const auto& signals = eval::RegressionSignals();
  std::vector<std::string> header = {"Filter"};
  for (const auto& s : signals) header.push_back(s.name);
  eval::Table table(header);

  runtime::Supervisor sup = bench::MakeSupervisor("table7");

  for (const auto& name : names) {
    if (name == "identity") continue;  // no spectral degrees of freedom
    std::vector<std::string> row = {name};
    for (const auto& signal : signals) {
      runtime::CellKey key{"sbm_regression", name, "fb", 1, signal.name};
      const auto rec = sup.Run(key, [&] {
        models::TrainResult tr;
        auto filter_or = filters::CreateFilter(name, bench::UniversalHops(), {}, 4);
        if (!filter_or.ok()) {
          tr.status = filter_or.status();
          return tr;
        }
        auto filter = filter_or.MoveValue();
        auto r = models::RunSignalRegression(problem, signal.fn, filter.get(),
                                             cfg);
        tr.test_metric = r.r2;
        return tr;
      });
      row.push_back(rec.ok()
                        ? eval::Fmt(std::max(0.0, rec.test_metric) * 100.0, 1)
                        : bench::StatusCell(rec));
    }
    table.AddRow(row);
    std::printf("[done] %s\n", name.c_str());
  }
  std::printf("\n");
  table.Print();
  return 0;
}

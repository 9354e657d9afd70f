// sgnn_run — command-line experiment runner.
//
// Runs one (dataset, filter, scheme) configuration and prints a result row;
// the programmable entry point behind the bench binaries, for ad-hoc
// experiments and scripting.
//
//   sgnn_run --dataset cora_sim --filter chebyshev --scheme mb
//            --hops 10 --epochs 100 --seeds 3 [--csv out.csv]
//
// Schemes: fb (full-batch), mb (mini-batch), gp (graph partition),
// iterative (per-hop transformations).
//
// Every run goes through the supervised runner (runtime/supervisor.h): a
// diverging, timed-out, or OOM seed is reported as a status instead of a
// crash; --deadline-ms bounds each seed's wall-clock; --fallback 0 disables
// the FB->MB OOM degradation; --journal <path> (or SPECTRAL_JOURNAL_DIR)
// makes runs resumable; SPECTRAL_FAULT_PLAN injects faults.

#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "flags.h"
#include "graph/datasets.h"
#include "models/iterative.h"
#include "models/partition.h"
#include "models/trainer.h"
#include "runtime/fault_injection.h"
#include "runtime/supervisor.h"

namespace {

using namespace sgnn;
using tools::Flags;

void Usage() {
  std::fprintf(
      stderr,
      "usage: sgnn_run --dataset <name> --filter <name> [--scheme fb|mb|gp|"
      "iterative]\n"
      "                [--hops K] [--epochs N] [--seeds S] [--rho R]\n"
      "                [--alpha A] [--beta B] [--hidden H] [--batch B]\n"
      "                [--parts P] [--layers J] [--csv path]\n"
      "                [--deadline-ms D] [--fallback 0|1] [--journal path]\n"
      "                [--shards K]  (edge-cut sharded propagation, K > 1;\n"
      "                 bit-identical to unsharded, see docs/SHARDING.md)\n"
      "datasets: ");
  for (const auto& spec : graph::AllDatasets()) {
    std::fprintf(stderr, "%s ", spec.name.c_str());
  }
  std::fprintf(stderr, "\nfilters: ");
  for (const auto& name : filters::AllFilterNames()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string dataset = flags.Get("dataset", "");
  const std::string filter_name = flags.Get("filter", "");
  const std::string scheme = flags.Get("scheme", "fb");
  if (dataset.empty() || filter_name.empty()) {
    Usage();
    return 2;
  }
  if (scheme != "fb" && scheme != "mb" && scheme != "gp" &&
      scheme != "iterative") {
    Usage();
    return 2;
  }
  auto spec_or = graph::FindDataset(dataset);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const graph::DatasetSpec spec = spec_or.value();

  filters::FilterHyperParams hp;
  hp.alpha = flags.GetDouble("alpha", hp.alpha);
  hp.beta = flags.GetDouble("beta", hp.beta);
  const int hops = flags.GetInt("hops", 10);
  const int seeds = flags.GetInt("seeds", 1);

  runtime::FaultInjector::Global().ArmFromEnv();
  runtime::Supervisor sup("sgnn_run", flags.Get("journal", ""));
  runtime::RunOptions options;
  options.hp = hp;
  options.hops = hops;
  options.fallback_to_mb = flags.GetInt("fallback", 1) != 0;

  std::vector<double> metrics;
  models::StageStats last_stats;
  bool any_bad = false;
  std::string last_marker;
  for (int seed = 1; seed <= seeds; ++seed) {
    runtime::CellKey key{dataset, filter_name, scheme, seed};
    runtime::CellRecord rec;
    if (const auto* done = sup.Find(key)) {
      rec = *done;
    } else {
      graph::Graph g = graph::MakeDataset(spec, seed);
      graph::Splits splits = graph::RandomSplits(g.n, seed);
      models::TrainConfig cfg;
      cfg.epochs = flags.GetInt("epochs", 100);
      cfg.hidden = flags.GetInt("hidden", 64);
      cfg.batch_size = flags.GetInt("batch", 4096);
      cfg.rho = flags.GetDouble("rho", 0.5);
      cfg.deadline_ms = flags.GetDouble("deadline-ms", 0.0);
      cfg.num_shards = flags.GetInt("shards", 0);
      cfg.seed = seed;
      if (scheme == "iterative") {
        rec = sup.Run(key, [&] {
          models::IterativeConfig icfg;
          icfg.base = cfg;
          icfg.layers = flags.GetInt("layers", 2);
          icfg.layer_filter = filter_name;
          return models::TrainIterative(g, splits, spec.metric, icfg);
        });
      } else if (scheme == "gp") {
        rec = sup.Run(key, [&]() -> models::TrainResult {
          models::TrainResult tr;
          auto filter_or =
              filters::CreateFilter(filter_name, hops, hp, g.features.cols());
          if (!filter_or.ok()) {
            tr.status = filter_or.status();
            return tr;
          }
          auto filter = filter_or.MoveValue();
          models::PartitionConfig pcfg;
          pcfg.base = cfg;
          pcfg.num_parts = flags.GetInt("parts", 8);
          return models::TrainGraphPartition(g, splits, spec.metric,
                                             filter.get(), pcfg);
        });
      } else {
        rec = sup.RunTraining(key, g, splits, spec.metric, cfg, options);
      }
    }
    std::string marker;
    if (!rec.ok()) {
      marker = std::string(" (") + runtime::CellStatusName(rec.status) + ")";
      if (!rec.detail.empty()) marker += ": " + rec.detail;
      any_bad = true;
    } else {
      metrics.push_back(rec.test_metric * 100.0);
    }
    if (rec.fell_back) marker += " fb->mb";
    last_stats = rec.stats;
    last_marker = marker;
    std::printf("seed %d: test %.2f%s\n", seed, rec.test_metric * 100.0,
                marker.c_str());
  }
  if (metrics.empty()) {
    std::printf("\n%s / %s / %s: no successful seed%s\n", dataset.c_str(),
                filter_name.c_str(), scheme.c_str(), last_marker.c_str());
    return 1;
  }
  const auto summary = eval::Summarize(metrics);
  std::printf(
      "\n%s / %s / %s: test %s  pre %.1f ms  train %.1f ms/ep  infer %.1f ms"
      "  ram %s  accel %s%s\n",
      dataset.c_str(), filter_name.c_str(), scheme.c_str(),
      eval::FmtMeanStd(summary.mean, summary.stddev).c_str(),
      last_stats.precompute_ms, last_stats.train_ms_per_epoch,
      last_stats.infer_ms, FormatBytes(last_stats.peak_ram_bytes).c_str(),
      FormatBytes(last_stats.peak_accel_bytes).c_str(),
      any_bad ? last_marker.c_str() : "");
  if (last_stats.shards > 1) {
    std::printf("sharded: K=%d  spills=%lld\n", last_stats.shards,
                static_cast<long long>(last_stats.shard_spills));
  }

  const std::string csv = flags.Get("csv", "");
  if (!csv.empty()) {
    std::FILE* f = std::fopen(csv.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", csv.c_str());
      return 1;
    }
    std::fprintf(f, "%s,%s,%s,%d,%.4f,%.4f,%.2f,%.2f,%.2f,%zu,%zu,%d\n",
                 dataset.c_str(), filter_name.c_str(), scheme.c_str(), hops,
                 summary.mean, summary.stddev, last_stats.precompute_ms,
                 last_stats.train_ms_per_epoch, last_stats.infer_ms,
                 last_stats.peak_ram_bytes, last_stats.peak_accel_bytes,
                 any_bad ? 1 : 0);
    std::fclose(f);
    std::printf("appended to %s\n", csv.c_str());
  }
  return 0;
}

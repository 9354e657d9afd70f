// Serving load generator: latency/throughput sweep over the batched
// inference engine (docs/SERVING.md, "Serving knobs" in docs/EXPERIMENTS.md).
//
// Trains one mini-batch model, round-trips it through the checkpoint format,
// then replays the same skewed query stream through every point of a
// (max_batch x cache budget x kernel threads) grid, twice per point:
//
//   * closed loop — one synchronous singleton ServeBatch per query; the
//     un-batched baseline (every serving system's floor).
//   * open loop — all queries Submit()ed up front; the dispatcher coalesces
//     them into batches. Throughput must beat the closed loop while every
//     per-query logit row stays bit-identical to its singleton result (the
//     determinism contract; violations abort the bench).
//
// A second grid then measures *overload*: seeded arrival processes
// (Poisson, ON/OFF burst, diurnal replay — serve/loadgen.h) are paced
// against an engine with admission control and SLO-aware adaptive batching,
// at a steady rate and at a 5x burst past measured capacity. Each scenario
// journals goodput, shed rate, and p99/p99.9 of the admitted queries; the
// contract under the burst is typed shedding (kUnavailable) with the
// admitted logits still bit-identical to singleton serving — unbounded p99
// growth and silent drops are the failure modes this grid exists to catch.
//
// Each grid point journals one supervised cell with its latency/goodput
// extras, so an interrupted sweep resumes and the tables reprint from the
// journal.

#include <cstring>
#include <map>
#include <utility>

#include "bench/bench_common.h"
#include "eval/table.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "tensor/parallel.h"

namespace {

using namespace sgnn;

/// One sweep point's measurements (filled by the run body, journaled as
/// cell extras by the post hook).
struct PointResult {
  double closed_qps = 0.0;
  double open_qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double hit_rate = 0.0;
  double batches = 0.0;
  bool identical = false;
};

/// Skewed query stream: 80% of queries on the hottest 10% of nodes.
std::vector<int64_t> MakeQueries(int64_t n, int count, uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  const auto hot = static_cast<uint64_t>(std::max<int64_t>(1, n / 10));
  std::vector<int64_t> q;
  q.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    q.push_back(static_cast<int64_t>(
        rng.Bernoulli(0.8) ? rng.UniformInt(hot)
                           : rng.UniformInt(static_cast<uint64_t>(n))));
  }
  return q;
}

Result<PointResult> RunPoint(const serve::Checkpoint& ckpt,
                             const std::vector<int64_t>& queries,
                             const serve::EngineConfig& cfg) {
  SGNN_ASSIGN_OR_RETURN(serve::ServableModel model,
                        serve::RestoreModel(ckpt));
  serve::Engine engine(std::move(model), cfg);
  PointResult out;
  const int64_t c = engine.num_classes();

  // Closed loop: singleton synchronous queries; also the reference logits.
  std::vector<float> reference;
  reference.reserve(queries.size() * static_cast<size_t>(c));
  eval::Stopwatch closed;
  for (const int64_t node : queries) {
    Matrix one;
    SGNN_RETURN_IF_ERROR(engine.ServeBatch({node}, &one));
    reference.insert(reference.end(), one.data(), one.data() + c);
  }
  const double closed_ms = closed.ElapsedMs();
  out.closed_qps = closed_ms > 0.0
                       ? static_cast<double>(queries.size()) /
                             (closed_ms / 1e3)
                       : 0.0;

  // Open loop: everything in flight at once, dispatcher picks the batches.
  eval::Stopwatch open;
  engine.Start();
  std::vector<std::future<serve::QueryResult>> futures;
  futures.reserve(queries.size());
  for (const int64_t node : queries) futures.push_back(engine.Submit(node));
  std::vector<serve::QueryResult> results;
  results.reserve(queries.size());
  for (auto& fut : futures) results.push_back(fut.get());
  const double open_ms = open.ElapsedMs();
  engine.Stop();
  out.open_qps =
      open_ms > 0.0
          ? static_cast<double>(queries.size()) / (open_ms / 1e3)
          : 0.0;

  out.identical = true;
  for (size_t i = 0; i < results.size(); ++i) {
    SGNN_RETURN_IF_ERROR(results[i].status);
    if (std::memcmp(results[i].logits.data(),
                    reference.data() + i * static_cast<size_t>(c),
                    static_cast<size_t>(c) * sizeof(float)) != 0) {
      out.identical = false;
    }
  }

  const serve::LatencyHistogram lat = engine.GetLatency();
  out.p50 = lat.PercentileMs(50);
  out.p95 = lat.PercentileMs(95);
  out.p99 = lat.PercentileMs(99);
  const serve::CacheStats cache = engine.GetCacheStats();
  out.hit_rate = cache.HitRate();
  out.batches = static_cast<double>(engine.batches_dispatched());
  return out;
}

/// One overload scenario's outcome (replay aggregates + the engine-side
/// view), journaled as cell extras.
struct ScenarioResult {
  serve::ReplayStats stats;
  double p99 = 0.0;       ///< admitted queries, submit -> fulfillment
  double p999 = 0.0;
  double wait_ms = 0.0;   ///< SLO controller's hold time at run end
  double hit_rate = 0.0;
  bool identical = false; ///< every admitted logit row == singleton serving
};

/// Paces one arrival schedule against a fresh admission-controlled engine,
/// then re-serves every admitted node as a singleton and compares bit for
/// bit — the determinism contract must survive overload, not just the happy
/// path.
Result<ScenarioResult> RunScenario(const serve::Checkpoint& ckpt,
                                   const serve::LoadGenConfig& load,
                                   bool retry, size_t cache_budget) {
  SGNN_ASSIGN_OR_RETURN(serve::ServableModel model,
                        serve::RestoreModel(ckpt));
  serve::EngineConfig ecfg;
  ecfg.max_batch = 64;
  ecfg.max_wait_ms = 1.0;
  ecfg.cache.accel_budget_bytes = cache_budget;
  ecfg.cache.host_budget_bytes = cache_budget;
  ecfg.max_queue = 4 * ecfg.max_batch;   // bounds queue wait, forces sheds
  ecfg.target_p99_ms = 5.0;              // adaptive hold vs this p99 SLO
  serve::Engine engine(std::move(model), ecfg);
  engine.Start();

  std::vector<std::pair<int64_t, std::vector<float>>> admitted;
  serve::ReplayConfig rcfg;
  rcfg.retry = retry;
  rcfg.on_result = [&](const serve::Arrival& a,
                       const serve::QueryResult& r) {
    if (r.status.ok()) admitted.emplace_back(a.node, r.logits);
  };
  const std::vector<serve::Arrival> schedule =
      serve::MakeSchedule(load, engine.num_nodes());
  Rng retry_rng(load.seed * 0x9E3779B97F4A7C15ULL + 7);
  ScenarioResult out;
  out.stats = serve::Replay(
      schedule,
      [&](int64_t node, double deadline_ms) {
        return engine.Submit(node, deadline_ms);
      },
      rcfg, &retry_rng);
  engine.Stop();

  out.identical = true;
  const auto c = static_cast<size_t>(engine.num_classes());
  std::map<int64_t, std::vector<float>> reference;  // singleton, memoized
  for (const auto& [node, logits] : admitted) {
    auto it = reference.find(node);
    if (it == reference.end()) {
      Matrix one;
      SGNN_RETURN_IF_ERROR(engine.ServeBatch({node}, &one));
      it = reference
               .emplace(node,
                        std::vector<float>(one.data(), one.data() + c))
               .first;
    }
    if (logits.size() != c ||
        std::memcmp(logits.data(), it->second.data(),
                    c * sizeof(float)) != 0) {
      out.identical = false;
    }
  }

  out.p99 = out.stats.latency.PercentileMs(99);
  out.p999 = out.stats.latency.PercentileMs(99.9);
  out.wait_ms = engine.GetOverloadStats().current_wait_ms;
  out.hit_rate = engine.GetCacheStats().HitRate();
  return out;
}

}  // namespace

int main() {
  using namespace sgnn;
  bench::Banner("Serving",
                "Batched inference sweep: open-loop QPS vs the singleton "
                "closed loop across max_batch x cache budget x threads, "
                "with the bit-identity contract checked per query");

  const std::string dataset = "cora_sim";
  const std::string filter_name = "chebyshev";
  const int num_queries = bench::FullMode() ? 4000 : 800;

  runtime::Supervisor sup = bench::MakeSupervisor("serving");

  // Train + export once, through the on-disk checkpoint format.
  const auto spec = graph::FindDataset(dataset).value();
  graph::Graph g = graph::MakeDataset(spec, 1);
  graph::Splits splits = graph::RandomSplits(g.n, 1);
  models::TrainConfig cfg = bench::UniversalConfig(true);
  cfg.epochs = bench::FullMode() ? 35 : 10;
  cfg.export_model = true;
  auto filter_or = filters::CreateFilter(filter_name, bench::UniversalHops(),
                                         {}, g.features.cols());
  if (!filter_or.ok()) {
    std::fprintf(stderr, "%s\n", filter_or.status().ToString().c_str());
    return 1;
  }
  auto filter = filter_or.MoveValue();
  models::TrainResult tr =
      models::TrainMiniBatch(g, splits, spec.metric, filter.get(), cfg);
  if (!tr.status.ok() || tr.exported == nullptr) {
    std::fprintf(stderr, "training failed: %s\n",
                 tr.status.ToString().c_str());
    return 1;
  }
  serve::CheckpointMeta meta{dataset, g.n, g.num_classes, cfg.rho, cfg.seed};
  auto ckpt_or = serve::BuildCheckpoint(filter_name, bench::UniversalHops(),
                                        {}, g.features.cols(), *tr.exported,
                                        meta);
  if (!ckpt_or.ok()) {
    std::fprintf(stderr, "%s\n", ckpt_or.status().ToString().c_str());
    return 1;
  }
  const std::string ckpt_path = "bench_serving.ckpt";
  if (const Status s = serve::SaveCheckpoint(ckpt_or.value(), ckpt_path);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto loaded_or = serve::LoadCheckpoint(ckpt_path);
  if (!loaded_or.ok()) {
    std::fprintf(stderr, "%s\n", loaded_or.status().ToString().c_str());
    return 1;
  }
  const serve::Checkpoint ckpt = loaded_or.MoveValue();
  std::printf("[model] %s/%s n=%lld, %zu terms, test %.3f\n\n",
              dataset.c_str(), filter_name.c_str(),
              static_cast<long long>(g.n), ckpt.terms.size(),
              tr.test_metric);

  const std::vector<int64_t> queries = MakeQueries(g.n, num_queries, 1);

  const std::vector<int> batch_sizes =
      bench::FullMode() ? std::vector<int>{4, 16, 64, 256}
                        : std::vector<int>{8, 64};
  const size_t bundle_bytes =
      ckpt.terms.size() * static_cast<size_t>(ckpt.phi1_in) * sizeof(float);
  const std::vector<size_t> cache_budgets = {
      0, bundle_bytes * static_cast<size_t>(g.n) / 8,
      bundle_bytes * static_cast<size_t>(g.n)};
  const int hw = parallel::NumThreads();
  std::vector<int> thread_counts = {1};
  if (hw > 1) thread_counts.push_back(hw);

  eval::Table table({"Batch", "Cache", "Thr", "Closed QPS", "Open QPS",
                     "Speedup", "p50 ms", "p99 ms", "Hit %", "Identical"});
  bool all_identical = true;
  bool any_speedup = false;
  for (const int threads : thread_counts) {
    parallel::SetNumThreads(threads);
    for (const size_t budget : cache_budgets) {
      for (const int batch : batch_sizes) {
        serve::EngineConfig ecfg;
        ecfg.max_batch = batch;
        ecfg.max_wait_ms = 0.2;
        ecfg.cache.accel_budget_bytes = budget;
        ecfg.cache.host_budget_bytes = budget;

        const std::string variant = "batch=" + std::to_string(batch) +
                                    "/cache=" + std::to_string(budget) +
                                    "/threads=" + std::to_string(threads);
        runtime::CellKey key{dataset, filter_name, "serve", 1, variant};
        PointResult point;
        const auto rec = sup.Run(
            key,
            [&]() -> models::TrainResult {
              models::TrainResult body;
              auto point_or = RunPoint(ckpt, queries, ecfg);
              if (!point_or.ok()) {
                body.status = point_or.status();
                return body;
              }
              point = point_or.value();
              body.stats.infer_ms = point.p50;
              return body;
            },
            [&](const models::TrainResult&, runtime::CellRecord* r) {
              r->extras = {{"closed_qps", point.closed_qps},
                           {"open_qps", point.open_qps},
                           {"p50_ms", point.p50},
                           {"p95_ms", point.p95},
                           {"p99_ms", point.p99},
                           {"hit_rate", point.hit_rate},
                           {"batches", point.batches},
                           {"identical", point.identical ? 1.0 : 0.0}};
            });
        if (!rec.ok()) {
          table.AddRow({std::to_string(batch), FormatBytes(budget),
                        std::to_string(threads), bench::StatusCell(rec), "-",
                        "-", "-", "-", "-", "-"});
          all_identical = false;
          continue;
        }
        const double closed = rec.Extra("closed_qps");
        const double open = rec.Extra("open_qps");
        const bool identical = rec.Extra("identical") >= 1.0;
        all_identical = all_identical && identical;
        any_speedup = any_speedup || (batch > 1 && open > closed);
        table.AddRow({std::to_string(batch), FormatBytes(budget),
                      std::to_string(threads), eval::Fmt(closed, 0),
                      eval::Fmt(open, 0),
                      closed > 0.0 ? eval::Fmt(open / closed, 2) + "x" : "-",
                      eval::Fmt(rec.Extra("p50_ms"), 3),
                      eval::Fmt(rec.Extra("p99_ms"), 3),
                      eval::Fmt(100.0 * rec.Extra("hit_rate"), 1),
                      identical ? "yes" : "NO"});
      }
    }
  }
  parallel::SetNumThreads(hw);
  std::printf("\n");
  table.Print();
  if (!all_identical) {
    std::remove(ckpt_path.c_str());
    std::fprintf(stderr,
                 "\nDETERMINISM VIOLATION: batched logits diverged from "
                 "singleton serving\n");
    return 1;
  }
  std::printf("\nbatched > singleton throughput at some sweep point: %s\n",
              any_speedup ? "yes" : "no");

  // ---- overload grid -----------------------------------------------------
  // Capacity probe: the engine's flat-out open-loop rate (all queries in
  // flight at once, unbounded queue). Scenario rates are multiples of this,
  // so "5x burst" means 5x past what *this* machine sustains, not a magic
  // constant.
  const size_t full_cache = bundle_bytes * static_cast<size_t>(g.n);
  double capacity_qps = 0.0;
  {
    auto model_or = serve::RestoreModel(ckpt);
    if (!model_or.ok()) {
      std::fprintf(stderr, "%s\n", model_or.status().ToString().c_str());
      return 1;
    }
    serve::EngineConfig pcfg;
    pcfg.max_batch = 64;
    pcfg.max_wait_ms = 0.2;
    pcfg.cache.accel_budget_bytes = full_cache;
    pcfg.cache.host_budget_bytes = full_cache;
    serve::Engine probe(model_or.MoveValue(), pcfg);
    probe.Start();
    eval::Stopwatch sw;
    std::vector<std::future<serve::QueryResult>> futs;
    futs.reserve(queries.size());
    for (const int64_t node : queries) futs.push_back(probe.Submit(node));
    for (auto& fut : futs) (void)fut.get();
    const double probe_ms = sw.ElapsedMs();
    probe.Stop();
    capacity_qps = probe_ms > 0.0 ? static_cast<double>(queries.size()) /
                                        (probe_ms / 1e3)
                                  : 1e5;
  }
  std::printf("\n[overload] capacity probe: %.0f qps open-loop\n",
              capacity_qps);

  // The scenario grid: one cell per (arrival process, client policy). The
  // ON/OFF base rate sits at capacity, so its ON windows offer 5x capacity
  // — the acceptance burst — and, with the OFF windows dry, it offers 2x
  // capacity on average. Typed sheds are the success mode there; the retry
  // twin shows the well-behaved client recovering them.
  struct Scenario {
    const char* name;
    serve::ArrivalProcess process;
    double rate_frac;  ///< mean_qps as a fraction of measured capacity
    bool retry;
  };
  const std::vector<Scenario> scenarios = {
      {"poisson-steady", serve::ArrivalProcess::kPoisson, 0.7, false},
      {"diurnal-ramp", serve::ArrivalProcess::kDiurnal, 0.8, false},
      {"onoff-burst-x5", serve::ArrivalProcess::kOnOff, 1.0, false},
      {"onoff-burst-x5-retry", serve::ArrivalProcess::kOnOff, 1.0, true},
  };

  eval::Table otable({"Scenario", "Offered", "Goodput", "Shed %", "DL shed",
                      "Retried", "Recov", "p99 ms", "p99.9 ms", "Hold ms",
                      "Identical"});
  bool overload_identical = true;
  bool burst_shed = false;
  bool accounting_ok = true;
  uint64_t failed_total = 0;
  for (const Scenario& sc : scenarios) {
    serve::LoadGenConfig load;
    load.process = sc.process;
    load.mean_qps = capacity_qps * sc.rate_frac;
    load.duration_ms = bench::FullMode() ? 1000.0 : 250.0;
    load.deadline_ms = 50.0;
    load.seed = 1;

    const std::string variant = std::string("overload/") + sc.name;
    runtime::CellKey key{dataset, filter_name, "serve", 1, variant};
    ScenarioResult sr;
    const auto rec = sup.Run(
        key,
        [&]() -> models::TrainResult {
          models::TrainResult body;
          auto sr_or = RunScenario(ckpt, load, sc.retry, full_cache);
          if (!sr_or.ok()) {
            body.status = sr_or.status();
            return body;
          }
          sr = sr_or.MoveValue();
          body.stats.infer_ms = sr.p99;
          return body;
        },
        [&](const models::TrainResult&, runtime::CellRecord* r) {
          r->extras = {
              {"capacity_qps", capacity_qps},
              {"mean_qps", load.mean_qps},
              {"offered", static_cast<double>(sr.stats.offered)},
              {"ok", static_cast<double>(sr.stats.ok)},
              {"shed", static_cast<double>(sr.stats.shed)},
              {"deadline_shed",
               static_cast<double>(sr.stats.deadline_shed)},
              {"failed", static_cast<double>(sr.stats.failed)},
              {"retried", static_cast<double>(sr.stats.retried)},
              {"recovered", static_cast<double>(sr.stats.recovered)},
              {"goodput_qps", sr.stats.GoodputQps()},
              {"shed_rate", sr.stats.ShedRate()},
              {"p99_ms", sr.p99},
              {"p999_ms", sr.p999},
              {"wait_ms", sr.wait_ms},
              {"hit_rate", sr.hit_rate},
              {"identical", sr.identical ? 1.0 : 0.0},
          };
        });
    if (!rec.ok()) {
      otable.AddRow({sc.name, bench::StatusCell(rec), "-", "-", "-", "-",
                     "-", "-", "-", "-", "-"});
      overload_identical = false;
      continue;
    }
    const auto offered = static_cast<uint64_t>(rec.Extra("offered"));
    const auto ok = static_cast<uint64_t>(rec.Extra("ok"));
    const auto shed = static_cast<uint64_t>(rec.Extra("shed"));
    const auto dl_shed = static_cast<uint64_t>(rec.Extra("deadline_shed"));
    const auto failed = static_cast<uint64_t>(rec.Extra("failed"));
    const auto retried = static_cast<uint64_t>(rec.Extra("retried"));
    const bool identical = rec.Extra("identical") >= 1.0;
    overload_identical = overload_identical && identical;
    failed_total += failed;
    accounting_ok =
        accounting_ok && (offered == ok + shed + dl_shed + failed);
    if (sc.process == serve::ArrivalProcess::kOnOff) {
      // Sheds that a retrying client later recovered still count: the
      // engine *did* bound its queue under the burst.
      burst_shed = burst_shed || shed > 0 || dl_shed > 0 || retried > 0;
    }
    otable.AddRow({sc.name, std::to_string(offered),
                   eval::Fmt(rec.Extra("goodput_qps"), 0),
                   eval::Fmt(100.0 * rec.Extra("shed_rate"), 1),
                   std::to_string(dl_shed), std::to_string(retried),
                   std::to_string(
                       static_cast<uint64_t>(rec.Extra("recovered"))),
                   eval::Fmt(rec.Extra("p99_ms"), 3),
                   eval::Fmt(rec.Extra("p999_ms"), 3),
                   eval::Fmt(rec.Extra("wait_ms"), 3),
                   identical ? "yes" : "NO"});
  }
  std::remove(ckpt_path.c_str());
  std::printf("\n");
  otable.Print();
  if (!overload_identical) {
    std::fprintf(stderr,
                 "\nDETERMINISM VIOLATION: admitted logits diverged from "
                 "singleton serving under overload\n");
    return 1;
  }
  if (!accounting_ok || failed_total > 0) {
    std::fprintf(stderr,
                 "\nOVERLOAD ACCOUNTING VIOLATION: untyped failures or "
                 "offered != ok + shed + deadline_shed + failed\n");
    return 1;
  }
  if (!burst_shed) {
    std::fprintf(stderr,
                 "\nADMISSION CONTROL INERT: 5x ON/OFF burst produced no "
                 "typed sheds — queue (and p99) was unbounded\n");
    return 1;
  }
  std::printf("\n5x burst shed typed (kUnavailable), admitted logits "
              "bit-identical: yes\n");
  return 0;
}

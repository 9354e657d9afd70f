// sgnn_serve — train, export, inspect, and serve decoupled checkpoints.
//
// The serving story end to end (docs/SERVING.md):
//
//   # train a mini-batch model and export a checkpoint
//   sgnn_serve --mode train --dataset cora_sim --filter chebyshev
//              --out model.ckpt
//   sgnn_serve --mode train --fuzz-seed 7 --out model.ckpt   # fuzz graph
//
//   # inspect a checkpoint
//   sgnn_serve --mode info --checkpoint model.ckpt
//
//   # serve queries (from a replay file of node ids, or generated)
//   sgnn_serve --checkpoint model.ckpt --replay queries.txt
//   sgnn_serve --checkpoint model.ckpt --queries 2000 --max-batch 32
//              --max-wait-ms 0.5 --cache-accel-kb 256 --cache-host-kb 1024
//
// Serving verifies determinism on demand (--verify 1): every async batched
// result must be bit-identical to a singleton ServeBatch of the same node.
// The serve_cli_train, serve_cli_info and serve_cli_serve CTests run the
// three modes above end to end (train on fuzz seed 7, inspect, serve 400
// verified queries); the engine, checkpoint, overload and quantization
// contracts are checked by the gtest suites in tests/.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "conformance/fuzz.h"
#include "core/registry.h"
#include "eval/table.h"
#include "flags.h"
#include "graph/datasets.h"
#include "models/trainer.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "sparse/adjacency.h"

namespace {

using namespace sgnn;
using tools::Flags;

void Usage() {
  std::fprintf(
      stderr,
      "usage: sgnn_serve --mode train --dataset <name>|--fuzz-seed N\n"
      "                  [--filter F] [--hops K] [--epochs N] [--out path]\n"
      "       sgnn_serve --mode info --checkpoint <path>\n"
      "       sgnn_serve --checkpoint <path> [--replay file | --queries N]\n"
      "                  [--max-batch B] [--max-wait-ms W]\n"
      "                  [--cache-accel-kb A] [--cache-host-kb H]\n"
      "                  [--verify 0|1] [--seed S]\n");
}

/// Deterministic attributed graph from a conformance fuzz seed: topology
/// from CaseFromSeed (skipping degenerate tiny families), random features
/// and labels from the same seed.
Result<graph::Graph> FuzzGraph(uint64_t seed, int* case_hops) {
  conformance::FuzzCase c;
  for (uint64_t k = 0; k < 64; ++k) {
    c = conformance::CaseFromSeed(seed + k);
    if (c.n >= 16) break;
  }
  if (c.n < 16) {
    return Status::InvalidArgument(
        "no fuzz case with >= 16 nodes near seed " + std::to_string(seed));
  }
  graph::Graph g;
  g.n = c.n;
  SGNN_ASSIGN_OR_RETURN(
      g.adj, sparse::BuildAdjacency(c.n, c.edges, /*add_self_loops=*/true));
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  g.features = Matrix(c.n, 16, Device::kHost);
  g.features.FillNormal(&rng);
  g.num_classes = 4;
  g.labels.resize(static_cast<size_t>(c.n));
  for (auto& y : g.labels) {
    y = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(g.num_classes)));
  }
  if (case_hops != nullptr) *case_hops = c.hops;
  return g;
}

/// Trains a mini-batch model and writes a checkpoint. Returns 0 on success.
int RunTrain(const Flags& flags) {
  const std::string out = flags.Get("out", "model.ckpt");
  const std::string filter_name = flags.Get("filter", "chebyshev");
  const std::string dataset = flags.Get("dataset", "");
  const int fuzz_seed = flags.GetInt("fuzz-seed", -1);

  graph::Graph g;
  std::string name;
  int default_hops = 10;
  graph::Metric metric = graph::Metric::kAccuracy;
  if (!dataset.empty()) {
    auto spec_or = graph::FindDataset(dataset);
    if (!spec_or.ok()) {
      std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
      return 2;
    }
    g = graph::MakeDataset(spec_or.value(),
                           static_cast<uint64_t>(flags.GetInt("seed", 1)));
    metric = spec_or.value().metric;
    name = dataset;
  } else if (fuzz_seed >= 0) {
    auto g_or = FuzzGraph(static_cast<uint64_t>(fuzz_seed), &default_hops);
    if (!g_or.ok()) {
      std::fprintf(stderr, "%s\n", g_or.status().ToString().c_str());
      return 2;
    }
    g = g_or.MoveValue();
    name = "fuzz-" + std::to_string(fuzz_seed);
  } else {
    Usage();
    return 2;
  }

  filters::FilterHyperParams hp;
  hp.alpha = flags.GetDouble("alpha", hp.alpha);
  hp.beta = flags.GetDouble("beta", hp.beta);
  const int hops = flags.GetInt("hops", default_hops);
  auto filter_or = filters::CreateFilter(filter_name, hops, hp,
                                         g.features.cols());
  if (!filter_or.ok()) {
    std::fprintf(stderr, "%s\n", filter_or.status().ToString().c_str());
    return 2;
  }
  auto filter = filter_or.MoveValue();
  if (!filter->SupportsMiniBatch()) {
    std::fprintf(stderr,
                 "filter %s does not support the decoupled mini-batch "
                 "scheme; nothing to export\n",
                 filter_name.c_str());
    return 2;
  }

  models::TrainConfig cfg;
  cfg.epochs = flags.GetInt("epochs", 30);
  cfg.hidden = flags.GetInt("hidden", 64);
  cfg.phi0_layers = 0;
  cfg.phi1_layers = 2;
  cfg.batch_size = flags.GetInt("batch", 4096);
  cfg.rho = flags.GetDouble("rho", 0.5);
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.export_model = true;

  graph::Splits splits = graph::RandomSplits(g.n, cfg.seed);
  models::TrainResult result =
      models::TrainMiniBatch(g, splits, metric, filter.get(), cfg);
  if (!result.status.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  if (result.exported == nullptr) {
    std::fprintf(stderr, "training produced no exported model\n");
    return 1;
  }

  serve::CheckpointMeta meta;
  meta.dataset = name;
  meta.n = g.n;
  meta.num_classes = g.num_classes;
  meta.rho = cfg.rho;
  meta.seed = cfg.seed;
  auto ckpt_or = serve::BuildCheckpoint(filter_name, hops, hp,
                                        g.features.cols(), *result.exported,
                                        meta);
  if (!ckpt_or.ok()) {
    std::fprintf(stderr, "%s\n", ckpt_or.status().ToString().c_str());
    return 1;
  }
  const Status saved = serve::SaveCheckpoint(ckpt_or.value(), out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf(
      "trained %s on %s (n=%lld, test %.3f) and saved %s (%zu terms)\n",
      filter_name.c_str(), name.c_str(), static_cast<long long>(g.n),
      result.test_metric, out.c_str(), ckpt_or.value().terms.size());
  return 0;
}

int RunInfo(const std::string& path) {
  auto ckpt_or = serve::LoadCheckpoint(path);
  if (!ckpt_or.ok()) {
    std::fprintf(stderr, "%s\n", ckpt_or.status().ToString().c_str());
    return 1;
  }
  const serve::Checkpoint& c = ckpt_or.value();
  size_t term_bytes = 0;
  for (const Matrix& t : c.terms) term_bytes += t.bytes();
  std::printf("checkpoint %s (version %u)\n", path.c_str(),
              serve::kCheckpointVersion);
  std::printf("  filter   %s  hops=%d  theta[%zu]\n", c.filter_name.c_str(),
              c.hops, c.theta.size());
  std::printf("  phi1     %d layers  %lld -> %lld -> %lld  dropout %.2f\n",
              c.phi1_layers, static_cast<long long>(c.phi1_in),
              static_cast<long long>(c.phi1_hidden),
              static_cast<long long>(c.phi1_out), c.dropout);
  std::printf("  terms    %zu x (%lld x %lld)  %s\n", c.terms.size(),
              static_cast<long long>(c.meta.n),
              static_cast<long long>(c.phi1_in),
              FormatBytes(term_bytes).c_str());
  std::printf("  dataset  %s  n=%lld  classes=%d  rho=%.2f  seed=%llu\n",
              c.meta.dataset.c_str(), static_cast<long long>(c.meta.n),
              c.meta.num_classes, c.meta.rho,
              static_cast<unsigned long long>(c.meta.seed));
  return 0;
}

/// Loads a replay file of whitespace-separated node ids.
Result<std::vector<int64_t>> LoadReplay(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::vector<int64_t> nodes;
  long long v = 0;
  while (std::fscanf(f, "%lld", &v) == 1) nodes.push_back(v);
  std::fclose(f);
  if (nodes.empty()) return Status::InvalidArgument(path + " has no queries");
  return nodes;
}

/// Generates a skewed query stream: 80% of queries hit the hottest 10% of
/// nodes, the workload shape tiered caching exists for.
std::vector<int64_t> GenerateQueries(int64_t n, int count, uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  const auto hot = static_cast<uint64_t>(std::max<int64_t>(1, n / 10));
  std::vector<int64_t> nodes;
  nodes.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const bool in_hot = rng.Bernoulli(0.8);
    nodes.push_back(static_cast<int64_t>(
        in_hot ? rng.UniformInt(hot)
               : rng.UniformInt(static_cast<uint64_t>(n))));
  }
  return nodes;
}

/// Serves `nodes` through the async engine; verifies batched results
/// against singleton ServeBatch calls when `verify`. Returns 0 on success.
int ServeQueries(serve::Engine* engine, const std::vector<int64_t>& nodes,
                 bool verify) {
  eval::Stopwatch wall;
  engine->Start();
  std::vector<std::future<serve::QueryResult>> futures;
  futures.reserve(nodes.size());
  for (const int64_t node : nodes) futures.push_back(engine->Submit(node));
  std::vector<serve::QueryResult> results;
  results.reserve(nodes.size());
  for (auto& fut : futures) results.push_back(fut.get());
  const double wall_ms = wall.ElapsedMs();
  engine->Stop();

  size_t ok = 0;
  double max_batch = 0.0;
  for (const auto& r : results) {
    if (r.status.ok()) ++ok;
    max_batch = std::max(max_batch, static_cast<double>(r.batch));
  }
  const serve::LatencyHistogram lat = engine->GetLatency();
  const serve::CacheStats cache = engine->GetCacheStats();
  const double qps =
      wall_ms > 0.0 ? static_cast<double>(nodes.size()) / (wall_ms / 1e3)
                    : 0.0;
  std::printf(
      "served %zu queries (%zu ok) in %.1f ms  (%.0f qps, %llu batches, "
      "max batch %.0f)\n",
      nodes.size(), ok, wall_ms, qps,
      static_cast<unsigned long long>(engine->batches_dispatched()),
      max_batch);
  std::printf("  latency ms  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
              lat.PercentileMs(50), lat.PercentileMs(95),
              lat.PercentileMs(99), lat.max_ms());
  std::printf(
      "  cache       hit %.1f%%  (accel %llu, host %llu, miss %llu, "
      "demote %llu, evict %llu)\n",
      100.0 * cache.HitRate(),
      static_cast<unsigned long long>(cache.accel_hits),
      static_cast<unsigned long long>(cache.host_hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.demotions),
      static_cast<unsigned long long>(cache.evictions));

  if (!verify) return ok == nodes.size() ? 0 : 1;

  // Determinism contract: each batched async result must be bit-identical
  // to a singleton synchronous call for the same node.
  std::map<int64_t, std::vector<float>> singleton;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "query %zu (node %lld) failed: %s\n", i,
                   static_cast<long long>(nodes[i]),
                   results[i].status.ToString().c_str());
      return 1;
    }
    auto it = singleton.find(nodes[i]);
    if (it == singleton.end()) {
      Matrix one;
      const Status s = engine->ServeBatch({nodes[i]}, &one);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::vector<float> row(one.data(), one.data() + one.cols());
      it = singleton.emplace(nodes[i], std::move(row)).first;
    }
    const std::vector<float>& want = it->second;
    const std::vector<float>& got = results[i].logits;
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(),
                    want.size() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: node %lld batched (batch=%lld) "
                   "!= singleton\n",
                   static_cast<long long>(nodes[i]),
                   static_cast<long long>(results[i].batch));
      return 1;
    }
  }
  std::printf("  verify      batched == singleton for all %zu queries\n",
              nodes.size());
  return 0;
}

int RunServe(const Flags& flags) {
  const std::string path = flags.Get("checkpoint", "");
  if (path.empty()) {
    Usage();
    return 2;
  }
  auto ckpt_or = serve::LoadCheckpoint(path);
  if (!ckpt_or.ok()) {
    std::fprintf(stderr, "%s\n", ckpt_or.status().ToString().c_str());
    return 1;
  }
  auto model_or = serve::RestoreModel(ckpt_or.value());
  if (!model_or.ok()) {
    std::fprintf(stderr, "%s\n", model_or.status().ToString().c_str());
    return 1;
  }

  serve::EngineConfig cfg;
  cfg.max_batch = flags.GetInt("max-batch", 32);
  cfg.max_wait_ms = flags.GetDouble("max-wait-ms", 0.5);
  cfg.cache.accel_budget_bytes =
      static_cast<size_t>(flags.GetInt("cache-accel-kb", 256)) * 1024;
  cfg.cache.host_budget_bytes =
      static_cast<size_t>(flags.GetInt("cache-host-kb", 1024)) * 1024;
  serve::Engine engine(model_or.MoveValue(), cfg);

  std::vector<int64_t> nodes;
  const std::string replay = flags.Get("replay", "");
  if (!replay.empty()) {
    auto nodes_or = LoadReplay(replay);
    if (!nodes_or.ok()) {
      std::fprintf(stderr, "%s\n", nodes_or.status().ToString().c_str());
      return 1;
    }
    nodes = nodes_or.MoveValue();
  } else {
    nodes = GenerateQueries(engine.num_nodes(),
                            flags.GetInt("queries", 1000),
                            static_cast<uint64_t>(flags.GetInt("seed", 1)));
  }
  return ServeQueries(&engine, nodes, flags.GetInt("verify", 0) != 0);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string mode = flags.Get(
      "mode", flags.Get("checkpoint", "").empty() ? "train" : "serve");
  if (mode == "train") return RunTrain(flags);
  if (mode == "info") return RunInfo(flags.Get("checkpoint", ""));
  if (mode == "serve") return RunServe(flags);
  Usage();
  return 2;
}

// Repository benchmark: chebyshev K=10 on products_sim under two
// workloads, run one at a time, each at one kernel thread:
//
//   mb_train    decoupled mini-batch training. The K-hop propagation runs
//               once (prep_ms); epochs are GEMM- and gather-bound.
//   serve_open  a serve::Engine over the MB model, fed by the benchmark's
//               own open-loop Poisson generator at a fixed absolute rate,
//               then saturated. No SpMM at all.
//
// The traced pass also probes SpMM and the serving pool at
// kPoolProbeThreads kernel threads, for the scaling metrics.
//
// With --trace 0 the run measures the end-to-end metrics through the public
// entry points (models::Train*, serve::Engine) with nothing traced. With
// --trace 1 it replays the same workload call by call through the layers'
// public functions, records one span per call, and reports per-layer
// metrics; the spans are written as Chrome trace JSON when the run ends.
//
// Every workload reports every metric of its pass: a metric a workload
// never exercises is reported as 0 and named on stdout. The last stdout
// line is the JSON result; the exit code is 1 on any correctness violation.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "core/registry.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "models/trainer.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "sparse/adjacency.h"
#include "tensor/device.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace {

using namespace sgnn;
using perfbench::Median;
using perfbench::Percentile;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr char kDataset[] = "products_sim";
constexpr char kFilter[] = "chebyshev";
constexpr int kHops = 10;
constexpr double kRho = 0.5;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Timed training calls per run at least, even past --seconds.
constexpr int kMinSamples = 3;

// Kernel threads, the same on every workload. On a shared 4-vCPU VM the
// multi-threaded runs swung 20-50% between runs: a preempted worker stalls
// every ParallelFor, and the pool's wake-ups dominate MB's small kernels and
// serving (3 threads: qps_max 52k-114k). At one thread they stayed within
// about 5%, and single-thread speed is what ROADMAP item 3 targets. The
// traced pass measures scaling at kPoolProbeThreads (sparse.spmm_scaling,
// tensor.pool_scaling).
constexpr int kThreads = 1;
constexpr int kPoolProbeThreads = 3;

// Serving workload (stated in BENCHMARK.json). The rate is absolute, not a
// fraction of a capacity probe, so a faster engine is offered the same load.
constexpr double kFixedQps = 20000.0;
constexpr double kDeadlineMs = 50.0;
constexpr int kMaxBatch = 64;
constexpr double kHoldMs = 0.2;
/// Bundle cache per tier, as a fraction of all bundles.
constexpr double kCacheFraction = 1.0 / 8.0;
/// Wake-up calibration around each open-loop slice: handoffs per reading,
/// and the reference median due-to-done time the round p50s are scaled to.
constexpr int kWakeHandoffs = 64;
constexpr double kWakeRefMs = 0.3;
/// Rounds of the interleaved serving phases per run.
constexpr int kRounds = 15;
/// Skewed queries that warm the cache and pool before timing.
constexpr size_t kWarmQueries = 40000;
/// Queries of the saturation bursts, split evenly over the rounds.
constexpr size_t kSaturationQueries = 360000;

const perfbench::Skew kSkew{0.8, 0.1};

/// Calibration work: two mini-batch steps of φ1's first layer over the
/// products_sim hop terms (K + 1 tables of 60,000 rows of 32 features,
/// batch 4096, hidden 64), the shape of the gated MB epoch.
constexpr perfbench::CalibShape kCalibShape{kHops + 1, 60000, 32, 64, 4096, 2};

/// Reference times of the two calibration works. The gated times are
/// reported in ms at this host speed: each sample is scaled by a reference
/// over the mean of the calibration readings just before and after it. On a
/// shared 4-vCPU Xeon VM single-thread speed drifted 1.7x within an hour
/// (dataset generation 0.42-0.73 s), and the same GEMM swung 2x between
/// runs while graph generation barely moved; each work tracks the drift of
/// its own shape, and no code under src/ can move either.
constexpr perfbench::CalibReading kCalibRef{35.0, 70.0};

/// Host-speed factors of a sample taken between two calibration readings.
/// Each metric takes the one that left it the smaller spread over the same
/// runs: step for MB's epoch, inference and precompute (epoch IQR/median
/// over five seeds 29% raw, 7% by step, 18% by memory), memory for set-up
/// and for serving's small batches, restores and thread handoffs.
struct HostFactors {
  double step = 1.0;
  double memory = 1.0;
};

HostFactors Factors(const perfbench::CalibReading& before,
                    const perfbench::CalibReading& after) {
  return {kCalibRef.step_ms / (0.5 * (before.step_ms + after.step_ms)),
          kCalibRef.memory_ms / (0.5 * (before.memory_ms + after.memory_ms))};
}

// Metric names. Each workload reports all of them in its pass.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},         {"latency_ms", "ms"},
    {"prep_ms", "ms"},        {"infer_ms", "ms"},
    {"rate_per_s", "1/s"},    {"peak_accel_mb", "MB"},
    {"peak_host_mb", "MB"},   {"rss_mb", "MB"},
    {"ok_ratio", "ratio"},
};
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"graph.generate_ms", "ms"},      {"sparse.normalize_ms", "ms"},
    {"sparse.spmm_ms", "ms"},         {"sparse.spmm_gbs", "GB/s"},
    {"sparse.spmm_scaling", "x"},     {"core.precompute_ms", "ms"},     {"core.combine_ms", "ms"},
    {"core.backward_combine_ms", "ms"},
    {"nn.forward_ms", "ms"},          {"nn.backward_ms", "ms"},
    {"nn.loss_ms", "ms"},             {"nn.adam_ms", "ms"},
    {"nn.infer_ms", "ms"},            {"tensor.gather_ms", "ms"},
    {"tensor.gemm_ms", "ms"},         {"tensor.gemm_gmacs", "GMAC/s"},
    {"tensor.pool_scaling", "x"},     {"models.gap_ms", "ms"},          {"serve.p99_ms", "ms"},
    {"serve.mean_batch", "rows"},     {"serve.batches", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.service_ms", "ms"},       {"serve.wait_ms", "ms"},
    {"serve.deadline_shed", "count"}, {"serve.failed", "count"},
    {"serve.gen_late_p99_ms", "ms"},  {"serve.gen_late_max_ms", "ms"},
};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

/// Real peak resident set of this process, MB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPU brand string from cpuid (no file reads).
std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// Collects the run's metrics, checks and counts; prints the human lines as
/// it goes and the JSON line at the end.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void Set(const std::string& name, double value) {
    values_[name] = value;
    std::printf("  %-26s %.6g %s\n", name.c_str(), value,
                UnitOf(name).c_str());
  }
  void Check(bool ok, const std::string& what) {
    std::printf("  check: %-52s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct_ = false;
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  bool correct() const { return correct_; }

  /// Prints the JSON result line: every metric of this pass. An end-to-end
  /// metric the workload failed to set is a benchmark defect; a per-layer
  /// metric the workload never exercises is reported as 0.
  std::string Finish() {
    std::map<std::string, perfbench::Metric> out;
    std::string missing;
    for (const auto& [name, unit] : trace_ ? kPerLayer : kEndToEnd) {
      const auto it = values_.find(name);
      if (it == values_.end()) missing += " " + name;
      out[name] = {it == values_.end() ? 0.0 : it->second, unit};
    }
    if (!missing.empty()) {
      if (trace_) {
        std::printf("  not exercised by this workload (reported as 0):%s\n",
                    missing.c_str());
      } else {
        Check(false, "every end-to-end metric measured (missing:" + missing +
                         ")");
      }
    }
    return perfbench::ResultLine(correct_, attempted_, failed_, out);
  }

 private:
  std::string UnitOf(const std::string& name) const {
    for (const auto& [n, unit] : trace_ ? kPerLayer : kEndToEnd) {
      if (n == name) return unit;
    }
    return "";
  }

  bool trace_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

void PrintSamples(const char* name, const std::vector<double>& v,
                  const char* unit) {
  std::printf("  %-26s median %.4f %s, min %.4f, max %.4f, n=%zu\n", name,
              Median(v), unit, v.empty() ? 0.0 : *std::min_element(v.begin(), v.end()),
              v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()),
              v.size());
}

}  // namespace

namespace {

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  graph::DatasetSpec spec;
  graph::Graph g;
  graph::Splits splits;
  sparse::CsrMatrix norm;  ///< Ã at ρ = 1/2, host-resident
};

/// Generates the dataset and its normalized adjacency from the seed.
/// Returns the set-up wall time in ms.
double MakeInputs(uint64_t seed, Tracer* tracer, Inputs* in) {
  const Clock::time_point t0 = Clock::now();
  in->spec = graph::FindDataset(kDataset).value();
  {
    Tracer::Scope s(tracer, "graph.generate");
    in->g = graph::MakeDataset(in->spec, seed);
    in->splits = graph::RandomSplits(in->g.n, seed);
  }
  {
    Tracer::Scope s(tracer, "sparse.normalize");
    in->norm = sparse::NormalizeAdjacency(in->g.adj, kRho);
  }
  return MsSince(t0);
}

/// Prints the digests of every generated input, so a change to the
/// generator or a resized graph shows as a different fingerprint.
void PrintInputDigest(const Inputs& in) {
  using perfbench::Digest;
  const auto& adj = in.g.adj;
  std::printf(
      "inputs: %s n=%lld nnz=%lld features=%lldx%lld classes=%d "
      "train/val/test=%zu/%zu/%zu\n",
      kDataset, static_cast<long long>(in.g.n),
      static_cast<long long>(adj.nnz()),
      static_cast<long long>(in.g.features.rows()),
      static_cast<long long>(in.g.features.cols()), in.g.num_classes,
      in.splits.train.size(), in.splits.val.size(), in.splits.test.size());
  std::printf(
      "input digest: csr=%s features=%s labels=%s splits=%s\n",
      Digest()
          .AddVector(adj.indptr())
          .AddVector(adj.indices())
          .AddVector(adj.values())
          .Hex()
          .c_str(),
      Digest().Add(in.g.features.data(), in.g.features.bytes()).Hex().c_str(),
      Digest().AddVector(in.g.labels).Hex().c_str(),
      Digest()
          .AddVector(in.splits.train)
          .AddVector(in.splits.val)
          .AddVector(in.splits.test)
          .Hex()
          .c_str());
}

/// Runs kSetupReps host-speed-scaled set-ups, or one traced set-up when
/// `calib` is null, and reports the median.
void SetUpTraining(const Args& a, Tracer* tracer, perfbench::Calibrator* calib,
                   Report* rep, Inputs* in) {
  std::vector<double> setup_s, raw_s;
  const int reps = calib != nullptr ? kSetupReps : 1;
  for (int r = 0; r < reps; ++r) {
    const perfbench::CalibReading c0 =
        calib != nullptr ? calib->Run() : kCalibRef;
    raw_s.push_back(MakeInputs(a.seed, tracer, in) / 1e3);
    const perfbench::CalibReading c1 =
        calib != nullptr ? calib->Run() : kCalibRef;
    setup_s.push_back(raw_s.back() * Factors(c0, c1).memory);
  }
  PrintInputDigest(*in);
  if (calib != nullptr) {
    PrintSamples("setup (raw)", raw_s, "s");
    rep->Set("setup_s", Median(setup_s));
  } else {
    rep->Set("graph.generate_ms", tracer->SelfMsByName("graph.generate"));
    rep->Set("sparse.normalize_ms", tracer->SelfMsByName("sparse.normalize"));
  }
}

// ---------------------------------------------------------------------------
// Training workloads.

/// Decoupled MB at the paper's Table 4 defaults: φ0 empty, φ1 two layers.
/// One epoch per trainer call, so each call yields one epoch sample.
models::TrainConfig TrainingConfig(uint64_t seed) {
  models::TrainConfig c;
  c.epochs = 1;
  c.eval_every = 1;
  c.hidden = 64;
  c.phi0_layers = 0;
  c.phi1_layers = 2;
  c.batch_size = 4096;
  c.rho = kRho;
  c.seed = seed;
  c.timing_only = true;
  return c;
}

models::TrainResult RunTrainer(const Inputs& in,
                               filters::SpectralFilter* filter,
                               const models::TrainConfig& cfg) {
  return models::TrainMiniBatch(in.g, in.splits, in.spec.metric, filter, cfg);
}

bool SameBits(double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; }

std::unique_ptr<filters::SpectralFilter> MakeFilter(const Inputs& in,
                                                    Report* rep) {
  auto f = filters::CreateFilter(kFilter, kHops, {}, in.g.features.cols());
  rep->Check(f.ok(), std::string("create filter ") + kFilter);
  return f.ok() ? f.MoveValue() : nullptr;
}

/// Untraced training run: a reference call with evaluation (also the
/// warm-up), then timed calls until --seconds have passed.
void RunTraining(const Args& a, perfbench::Calibrator* calib, Report* rep) {
  parallel::SetNumThreads(kThreads);
  std::printf("kernel threads: %d\n", parallel::NumThreads());
  Inputs in;
  SetUpTraining(a, nullptr, calib, rep, &in);
  auto filter = MakeFilter(in, rep);
  if (filter == nullptr) return;

  models::TrainConfig cfg = TrainingConfig(a.seed);
  models::TrainConfig eval_cfg = cfg;
  eval_cfg.timing_only = false;
  const models::TrainResult ref = RunTrainer(in, filter.get(), eval_cfg);
  uint64_t attempted = 1;
  uint64_t failed = ref.status.ok() ? 0 : 1;
  std::printf(
      "reference run: status=%s final_train_loss=%.9g test_acc=%.6f "
      "test_logits=%s\n",
      ref.status.ToString().c_str(), ref.final_train_loss, ref.test_metric,
      perfbench::Digest()
          .Add(ref.test_logits.data(), ref.test_logits.bytes())
          .Hex()
          .c_str());
  rep->Check(ref.status.ok(), "reference run trips no RunGuard");
  rep->Check(std::isfinite(ref.final_train_loss) &&
                 ref.test_logits.size() > 0 && ops::AllFinite(ref.test_logits),
             "reference loss and test logits finite");

  std::vector<double> epoch, prep, infer, raw_epoch, step_k, memory_k;
  size_t peak_accel = 0, peak_host = 0;
  bool same_loss = true;
  const Clock::time_point t0 = Clock::now();
  while (epoch.size() < static_cast<size_t>(kMinSamples) ||
         MsSince(t0) < a.seconds * 1e3) {
    const perfbench::CalibReading c0 = calib->Run();
    const models::TrainResult r = RunTrainer(in, filter.get(), cfg);
    const HostFactors k = Factors(c0, calib->Run());
    ++attempted;
    if (!r.status.ok()) {
      ++failed;
      std::printf("  run failed: %s\n", r.status.ToString().c_str());
      if (attempted > 4 * static_cast<uint64_t>(kMinSamples) &&
          epoch.empty()) {
        break;
      }
      continue;
    }
    same_loss = same_loss && SameBits(r.final_train_loss, ref.final_train_loss);
    raw_epoch.push_back(r.stats.train_ms_per_epoch);
    step_k.push_back(k.step);
    memory_k.push_back(k.memory);
    epoch.push_back(k.step * r.stats.train_ms_per_epoch);
    infer.push_back(k.step * r.stats.infer_ms);
    prep.push_back(k.step * r.stats.precompute_ms);
    peak_accel = std::max(peak_accel, r.stats.peak_accel_bytes);
    peak_host = std::max(peak_host, r.stats.peak_ram_bytes);
  }
  rep->Check(same_loss, "timed runs reproduce the reference loss bit for bit");
  rep->Count(attempted, failed);
  PrintSamples("epoch (raw)", raw_epoch, "ms");
  PrintSamples("host speed factor, step", step_k, "x");
  PrintSamples("host speed factor, memory", memory_k, "x");
  PrintSamples("epoch", epoch, "ms");
  PrintSamples("precompute", prep, "ms");
  PrintSamples("inference", infer, "ms");
  const double epoch_ms = Median(epoch);
  rep->Set("latency_ms", epoch_ms);
  rep->Set("prep_ms", Median(prep));
  rep->Set("infer_ms", Median(infer));
  rep->Set("rate_per_s", epoch_ms > 0.0
                             ? static_cast<double>(in.splits.train.size()) /
                                   (epoch_ms / 1e3)
                             : 0.0);
  rep->Set("peak_accel_mb", Mb(peak_accel));
  rep->Set("peak_host_mb", Mb(peak_host));
  rep->Set("ok_ratio", 1.0 - static_cast<double>(failed) /
                                 static_cast<double>(attempted));
}

}  // namespace

namespace {

// ---------------------------------------------------------------------------
// Traced training: per-layer split from a call-by-call replay.

constexpr int kReplayWarmEpochs = 1;
constexpr int kMbReplayEpochs = 5;
constexpr int kProbeReps = 5;

/// Median over the measured epochs of a layer's per-epoch self time.
double PerEpoch(const Tracer& t, const std::vector<int>& epochs,
                const std::string& name) {
  std::vector<double> v;
  for (const int e : epochs) v.push_back(t.SelfMsByName(name, e));
  return Median(v);
}

double EpochMs(const Tracer& t, const std::vector<int>& epochs) {
  std::vector<double> v;
  for (const int e : epochs) v.push_back(t.TotalMs(e));
  return Median(v);
}

/// One CsrMatrix::SpMM at `width` columns at the workload's thread count,
/// and its scaling to kPoolProbeThreads.
void ProbeSpmm(const sparse::CsrMatrix& prop, int64_t width, uint64_t seed,
               Tracer* tracer, Report* rep) {
  Rng rng(seed);
  Matrix x(prop.n(), width);
  x.FillUniform(&rng, -1.0f, 1.0f);
  Matrix y(prop.n(), width);
  auto time_at = [&](int th) {
    parallel::SetNumThreads(th);
    prop.SpMM(x, &y);  // warm
    std::vector<double> v;
    for (int r = 0; r < kProbeReps; ++r) {
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Scope s(tracer, "sparse.spmm");
        prop.SpMM(x, &y);
      }
      v.push_back(MsSince(t0));
    }
    return Median(v);
  };
  const double t1 = time_at(1);
  const double tw = kThreads == 1 ? t1 : time_at(kThreads);
  const double tp = time_at(kPoolProbeThreads);
  parallel::SetNumThreads(kThreads);
  // Computed bytes: CSR arrays once, one input row per nonzero, one output
  // row per node.
  const double bytes =
      static_cast<double>(prop.nnz()) * (sizeof(float) + sizeof(int32_t)) +
      static_cast<double>(prop.n() + 1) * sizeof(int64_t) +
      static_cast<double>(prop.nnz() + prop.n()) *
          static_cast<double>(width) * sizeof(float);
  std::printf("  spmm probe: n=%lld nnz=%lld F=%lld, 1 thread %.3f ms, %d "
              "threads %.3f ms; GB/s is computed from array sizes\n",
              static_cast<long long>(prop.n()),
              static_cast<long long>(prop.nnz()),
              static_cast<long long>(width), t1, kPoolProbeThreads, tp);
  rep->Set("sparse.spmm_ms", tw);
  rep->Set("sparse.spmm_gbs", bytes / (tw / 1e3) / 1e9);
  rep->Set("sparse.spmm_scaling", t1 / tp);
}

/// ops::Gemm at φ1's first-layer shape (rows x k) * (k x m).
void ProbeGemm(int64_t rows, int64_t k, int64_t m, uint64_t seed,
               Tracer* tracer, Report* rep) {
  Rng rng(seed);
  Matrix a(rows, k), b(k, m), out(rows, m);
  a.FillUniform(&rng, -1.0f, 1.0f);
  b.FillUniform(&rng, -1.0f, 1.0f);
  ops::Gemm(a, b, &out);  // warm
  std::vector<double> v;
  for (int r = 0; r < 4 * kProbeReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "tensor.gemm");
      ops::Gemm(a, b, &out);
    }
    v.push_back(MsSince(t0));
  }
  const double ms = Median(v);
  std::printf("  gemm probe: (%lld x %lld) * (%lld x %lld)\n",
              static_cast<long long>(rows), static_cast<long long>(k),
              static_cast<long long>(k), static_cast<long long>(m));
  rep->Set("tensor.gemm_ms", ms);
  rep->Set("tensor.gemm_gmacs",
           static_cast<double>(rows * k * m) / (ms / 1e3) / 1e9);
}

/// The trainer's Fisher-Yates batch order, replayed on the same stream.
void Shuffle(std::vector<int32_t>* idx, Rng* rng) {
  for (size_t i = idx->size(); i > 1; --i) {
    const auto j = static_cast<size_t>(rng->UniformInt(i));
    std::swap((*idx)[i - 1], (*idx)[j]);
  }
}

/// Replays TrainMiniBatch's precompute and epochs call by call.
std::vector<int> ReplayMiniBatch(const Inputs& in,
                                 filters::SpectralFilter* filter,
                                 const models::TrainConfig& cfg, Tracer* t,
                                 Report* rep, double* first_loss) {
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 13);
  filter->ResetParameters(&rng);
  const filters::FilterContext host_ctx{&in.norm, Device::kHost};
  std::vector<Matrix> terms;
  {
    Tracer::Scope s(t, "core.precompute");
    const Status st = filter->Precompute(host_ctx, in.g.features, &terms);
    rep->Check(st.ok(), "replayed precompute: " + st.ToString());
    if (!st.ok()) return {};
  }
  const int64_t fi = in.g.features.cols();
  nn::Mlp phi1(cfg.phi1_layers, fi, cfg.hidden, in.g.num_classes, cfg.dropout,
               Device::kAccel);
  phi1.Init(&rng);
  std::vector<int32_t> train_idx = in.splits.train;
  const auto bs = static_cast<size_t>(cfg.batch_size);
  std::vector<int> epochs;
  int64_t step = 0;
  for (int epoch = 0; epoch < kReplayWarmEpochs + kMbReplayEpochs; ++epoch) {
    const int span = t->Begin("models.epoch");
    Shuffle(&train_idx, &rng);
    double loss = 0.0;
    for (size_t start = 0; start < train_idx.size(); start += bs) {
      const size_t end = std::min(train_idx.size(), start + bs);
      const std::vector<int32_t> batch(
          train_idx.begin() + static_cast<int64_t>(start),
          train_idx.begin() + static_cast<int64_t>(end));
      std::vector<Matrix> hold(terms.size());
      std::vector<const Matrix*> ptrs;
      {
        Tracer::Scope s(t, "tensor.gather");
        parallel::ParallelFor(0, static_cast<int64_t>(terms.size()), 1,
                              [&](int64_t lo, int64_t hi) {
                                for (int64_t i = lo; i < hi; ++i) {
                                  const auto u = static_cast<size_t>(i);
                                  hold[u] = terms[u].GatherRows(batch);
                                }
                              });
        for (auto& m : hold) m.MoveToDevice(Device::kAccel);
      }
      for (const auto& m : hold) ptrs.push_back(&m);
      Matrix h, logits;
      {
        Tracer::Scope s(t, "core.combine");
        filter->CombineTerms(ptrs, &h, /*cache=*/true);
      }
      {
        Tracer::Scope s(t, "nn.forward");
        phi1.Forward(h, &logits, /*train=*/true, &rng);
      }
      std::vector<int32_t> labels(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        labels[i] = in.g.labels[static_cast<size_t>(batch[i])];
      }
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      {
        Tracer::Scope s(t, "nn.loss");
        loss = nn::SoftmaxCrossEntropy(logits, labels, {}, &grad);
      }
      phi1.ZeroGrad();
      filter->params().ZeroGrad();
      Matrix g_h(h.rows(), h.cols(), Device::kAccel);
      {
        Tracer::Scope s(t, "nn.backward");
        phi1.Backward(grad, &g_h);
      }
      {
        Tracer::Scope s(t, "core.backward_combine");
        filter->BackwardCombine(ptrs, g_h);
      }
      ++step;
      {
        Tracer::Scope s(t, "nn.adam");
        phi1.AdamStep(cfg.weights_opt, step);
        filter->params().AdamStep(cfg.filter_opt, step);
      }
    }
    t->End(span);
    if (epoch == 0) *first_loss = loss;
    if (epoch >= kReplayWarmEpochs) epochs.push_back(span);
  }
  return epochs;
}

/// Traced training run: short untraced reference (for models.gap_ms), the
/// call-by-call replay, and the kernel probes at this workload's shapes.
void TraceTraining(const Args& a, Tracer* t, Report* rep) {
  parallel::SetNumThreads(kThreads);
  std::printf("kernel threads: %d\n", parallel::NumThreads());
  Inputs in;
  SetUpTraining(a, t, nullptr, rep, &in);
  auto filter = MakeFilter(in, rep);
  if (filter == nullptr) return;
  const models::TrainConfig cfg = TrainingConfig(a.seed);

  std::vector<double> untraced;
  double trainer_loss = 0.0;
  uint64_t failed = 0;
  for (int r = 0; r < 2; ++r) {
    const models::TrainResult res = RunTrainer(in, filter.get(), cfg);
    if (!res.status.ok()) ++failed;
    untraced.push_back(res.stats.train_ms_per_epoch);
    trainer_loss = res.final_train_loss;
  }
  rep->Count(2, failed);
  rep->Check(failed == 0, "untraced reference runs trip no RunGuard");

  double replay_loss = 0.0;
  const std::vector<int> epochs =
      ReplayMiniBatch(in, filter.get(), cfg, t, rep, &replay_loss);
  if (epochs.empty()) return;
  std::printf("  replay first-epoch loss %.9g, trainer %.9g (%s)\n",
              replay_loss, trainer_loss,
              SameBits(replay_loss, trainer_loss) ? "bit-identical"
                                                  : "differs");
  const double traced_epoch = EpochMs(*t, epochs);
  std::printf("  traced epoch %.3f ms (median of %zu), untraced %.3f ms\n",
              traced_epoch, epochs.size(), Median(untraced));
  rep->Set("core.precompute_ms", t->SelfMsByName("core.precompute"));
  rep->Set("core.combine_ms", PerEpoch(*t, epochs, "core.combine"));
  rep->Set("core.backward_combine_ms",
           PerEpoch(*t, epochs, "core.backward_combine"));
  rep->Set("tensor.gather_ms", PerEpoch(*t, epochs, "tensor.gather"));
  rep->Set("nn.forward_ms", PerEpoch(*t, epochs, "nn.forward"));
  rep->Set("nn.backward_ms", PerEpoch(*t, epochs, "nn.backward"));
  rep->Set("nn.loss_ms", PerEpoch(*t, epochs, "nn.loss"));
  rep->Set("nn.adam_ms", PerEpoch(*t, epochs, "nn.adam"));
  rep->Set("models.gap_ms", Median(untraced) - traced_epoch);

  ProbeSpmm(in.norm, in.g.features.cols(), a.seed, t, rep);
  ProbeGemm(cfg.batch_size, in.g.features.cols(), cfg.hidden, a.seed, t, rep);
}

}  // namespace

namespace {

// ---------------------------------------------------------------------------
// Serving workload.

struct ServeSetup {
  Inputs in;
  serve::Checkpoint ckpt;  ///< as loaded back from disk
  std::unique_ptr<serve::Engine> engine;
};

serve::EngineConfig ServeConfig(const serve::Checkpoint& ckpt) {
  const size_t bundle_bytes =
      ckpt.terms.size() * static_cast<size_t>(ckpt.phi1_in) * sizeof(float);
  const auto budget = static_cast<size_t>(
      static_cast<double>(bundle_bytes * static_cast<size_t>(ckpt.meta.n)) *
      kCacheFraction);
  serve::EngineConfig c;
  c.max_batch = kMaxBatch;
  c.max_wait_ms = kHoldMs;
  c.cache.accel_budget_bytes = budget;
  c.cache.host_budget_bytes = budget;
  return c;  // no queue limits, no default deadline, fixed hold
}

/// Offers every node at once and waits for all results.
std::vector<serve::QueryResult> SubmitAll(serve::Engine* engine,
                                          const std::vector<int64_t>& nodes) {
  std::vector<std::future<serve::QueryResult>> futures;
  futures.reserve(nodes.size());
  for (const int64_t node : nodes) futures.push_back(engine->Submit(node));
  std::vector<serve::QueryResult> results;
  results.reserve(nodes.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

/// Restores the model from the checkpoint image and starts an engine.
std::unique_ptr<serve::Engine> StartEngine(const serve::Checkpoint& ckpt,
                                           Report* rep) {
  auto model = serve::RestoreModel(ckpt);
  if (!model.ok()) {
    rep->Check(false, "restore model: " + model.status().ToString());
    return nullptr;
  }
  auto engine = std::make_unique<serve::Engine>(model.MoveValue(),
                                                ServeConfig(ckpt));
  engine->Start();
  return engine;
}

/// One serving set-up: dataset, MB training with mb_train's config, the
/// checkpoint round trip, restore, engine start and cache warm-up. Returns
/// false (after a failed check) when any step fails.
bool SetUpServing(const Args& a, Tracer* t, Report* rep, ServeSetup* out) {
  MakeInputs(a.seed, t, &out->in);
  const Inputs& in = out->in;
  auto filter = MakeFilter(in, rep);
  if (filter == nullptr) return false;
  models::TrainConfig cfg = TrainingConfig(a.seed);
  cfg.timing_only = false;
  cfg.export_model = true;
  const models::TrainResult tr =
      models::TrainMiniBatch(in.g, in.splits, in.spec.metric, filter.get(), cfg);
  std::printf("  model: status=%s final_train_loss=%.9g test_acc=%.6f\n",
              tr.status.ToString().c_str(), tr.final_train_loss,
              tr.test_metric);
  if (!tr.status.ok() || tr.exported == nullptr) {
    rep->Check(false, "serving model trains: " + tr.status.ToString());
    return false;
  }
  const serve::CheckpointMeta meta{kDataset, in.g.n, in.g.num_classes, kRho,
                                   a.seed};
  auto built = serve::BuildCheckpoint(kFilter, kHops, {}, in.g.features.cols(),
                                      *tr.exported, meta);
  if (!built.ok()) {
    rep->Check(false, "build checkpoint: " + built.status().ToString());
    return false;
  }
  const std::string path = a.work_dir + "/serve_open.ckpt";
  const Status saved = serve::SaveCheckpoint(built.value(), path);
  auto loaded = serve::LoadCheckpoint(path);
  std::remove(path.c_str());
  if (!saved.ok() || !loaded.ok()) {
    rep->Check(false, "checkpoint round trip: " + saved.ToString() + " / " +
                          loaded.status().ToString());
    return false;
  }
  out->ckpt = loaded.MoveValue();
  out->engine = StartEngine(out->ckpt, rep);
  if (out->engine == nullptr) return false;

  perfbench::SplitMix64 rng(perfbench::StreamSeed(a.seed, 2));
  const auto warm = SubmitAll(
      out->engine.get(), perfbench::SkewedNodes(in.g.n, kWarmQueries, kSkew,
                                                &rng));
  const bool warm_ok = std::all_of(warm.begin(), warm.end(),
                                   [](const auto& r) { return r.status.ok(); });
  if (!warm_ok) rep->Check(false, "cache warm-up queries all served");
  return warm_ok;
}

/// Sleeps until `due_ms` after `t0`. No spinning: the generator must not
/// take a core from the engine; the sleep's overshoot counts as lateness.
void WaitUntil(Clock::time_point t0, double due_ms) {
  const double left = due_ms - MsSince(t0);
  if (left > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(left));
  }
}

/// Outcome tallies of one phase. Every offered query is exactly one of ok,
/// deadline_shed or failed (an error status); `late` counts the ok ones
/// whose due-to-result latency passed the deadline.
struct Tally {
  uint64_t offered = 0, ok = 0, deadline_shed = 0, failed = 0, late = 0;
  uint64_t misses() const { return deadline_shed + failed + late; }
  Tally& operator+=(const Tally& o) {
    offered += o.offered;
    ok += o.ok;
    deadline_shed += o.deadline_shed;
    failed += o.failed;
    late += o.late;
    return *this;
  }
};

Tally Classify(const std::vector<serve::QueryResult>& results,
               const std::vector<double>* latency) {
  Tally t;
  t.offered = results.size();
  for (size_t i = 0; i < results.size(); ++i) {
    const Status& s = results[i].status;
    if (s.ok()) {
      ++t.ok;
      if (latency != nullptr && (*latency)[i] > kDeadlineMs) ++t.late;
    } else if (s.code() == StatusCode::kDeadlineExceeded) {
      ++t.deadline_shed;
    } else {
      ++t.failed;
    }
  }
  return t;
}

/// Every admitted row must be byte-equal to a singleton ServeBatch of the
/// same node. Returns the number of mismatching rows.
uint64_t CountMismatches(serve::Engine* engine,
                         const std::vector<int64_t>& nodes,
                         const std::vector<serve::QueryResult>& results,
                         std::vector<std::vector<float>>* reference) {
  const auto c = static_cast<size_t>(engine->num_classes());
  uint64_t bad = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) continue;
    auto& ref = (*reference)[static_cast<size_t>(nodes[i])];
    if (ref.empty()) {
      Matrix one;
      if (!engine->ServeBatch({nodes[i]}, &one).ok()) {
        ++bad;
        continue;
      }
      ref.assign(one.data(), one.data() + c);
    }
    if (results[i].logits.size() != c ||
        !perfbench::RowsByteEqual(results[i].logits.data(), ref.data(), c)) {
      ++bad;
    }
  }
  return bad;
}

/// Queries and results of one phase, gathered over all rounds.
struct Phase {
  std::vector<int64_t> nodes;
  std::vector<serve::QueryResult> results;
};

/// Offers every node at once; returns completed queries per second.
double Saturate(serve::Engine* engine, const std::vector<int64_t>& nodes,
                Phase* out) {
  const Clock::time_point t0 = Clock::now();
  std::vector<serve::QueryResult> results = SubmitAll(engine, nodes);
  const double ms = MsSince(t0);
  const double ok = static_cast<double>(Classify(results, nullptr).ok);
  out->nodes.insert(out->nodes.end(), nodes.begin(), nodes.end());
  for (auto& r : results) out->results.push_back(std::move(r));
  return ok / (ms / 1e3);
}

/// Plays an open-loop schedule in real time, recording each query's
/// latency from its due time.
void PlayOpenLoop(serve::Engine* engine,
                  const std::vector<perfbench::Arrival>& schedule, Phase* out,
                  perfbench::OpenLoopRecorder* rec) {
  std::vector<std::future<serve::QueryResult>> futures;
  std::vector<double> submit_ms;
  futures.reserve(schedule.size());
  submit_ms.reserve(schedule.size());
  const Clock::time_point t0 = Clock::now();
  for (const auto& arr : schedule) {
    WaitUntil(t0, arr.due_ms);
    submit_ms.push_back(MsSince(t0));
    futures.push_back(engine->Submit(arr.node, kDeadlineMs));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    out->results.push_back(futures[i].get());
    out->nodes.push_back(schedule[i].node);
    rec->Record(schedule[i].due_ms, submit_ms[i],
                out->results.back().latency_ms);
  }
}

/// Synchronous ServeBatch over `nodes` in max_batch chunks; returns the
/// wall time in ms, or a negative value when a batch fails.
double OfflinePass(serve::Engine* engine, const std::vector<int32_t>& nodes) {
  const Clock::time_point t0 = Clock::now();
  for (size_t s = 0; s < nodes.size(); s += kMaxBatch) {
    const size_t e = std::min(nodes.size(), s + kMaxBatch);
    const std::vector<int64_t> batch(nodes.begin() + static_cast<int64_t>(s),
                                     nodes.begin() + static_cast<int64_t>(e));
    Matrix logits;
    if (!engine->ServeBatch(batch, &logits).ok()) return -1.0;
  }
  return MsSince(t0);
}

/// Serving run. Untraced it reports the end-to-end metrics; traced it
/// repeats the same phases and adds the per-layer probes.
void RunServing(const Args& a, Tracer* t, perfbench::Calibrator* calib,
                Report* rep) {
  const bool traced = t != nullptr;
  parallel::SetNumThreads(kThreads);
  std::printf("kernel threads: %d (+ generator + dispatcher)\n",
              parallel::NumThreads());
  std::printf("engine: max_batch=%d hold=%.2f ms cache=1/%d of bundles per "
              "tier, no queue limits; fixed rate %.0f qps, deadline %.0f ms\n",
              kMaxBatch, kHoldMs, static_cast<int>(1.0 / kCacheFraction),
              kFixedQps, kDeadlineMs);
  ServeSetup su;
  std::vector<double> setup_s, raw_setup;
  for (int r = 0; r < (traced ? 1 : kSetupReps); ++r) {
    // The last set-up is freed first (engine before the model it serves),
    // so rss_mb holds one set-up's footprint, not two overlapping ones.
    su.engine.reset();
    su = ServeSetup{};
    const perfbench::CalibReading c0 = calib->Run();
    const Clock::time_point t0 = Clock::now();
    if (!SetUpServing(a, t, rep, &su)) return;
    raw_setup.push_back(MsSince(t0) / 1e3);
    setup_s.push_back(raw_setup.back() * Factors(c0, calib->Run()).memory);
  }
  PrintInputDigest(su.in);
  serve::Engine& engine = *su.engine;
  const int64_t n = su.in.g.n;

  // Timed phases, interleaved over rounds: an open-loop slice at the fixed
  // rate (its counters diffed around it), a saturation burst, an offline
  // pass and (untraced) a restore. Each reported value is a median over
  // rounds, so a burst of load from elsewhere on the host lands in one
  // round's samples instead of a whole phase.
  // The generator's own sleeps wake within 1 us instead of the default
  // 50 us timer slack; the engine's threads keep the default, and so does
  // the wake calibrator's worker, created first.
  perfbench::WakeCalibrator wake(kHoldMs, kWakeHandoffs);
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  DeviceTracker::Global().ResetPeak();
  std::vector<std::vector<float>> reference(static_cast<size_t>(n));
  const serve::OverloadStats ov0 = engine.GetOverloadStats();
  Tally fixed_tally, sat_tally;
  uint64_t mismatches = 0;
  perfbench::OpenLoopRecorder rec;
  perfbench::Digest sched_digest;
  std::vector<double> p50s, qps, pool_scaling, infer_ms, restore_ms;
  std::vector<double> raw_qps_v, memory_k, raw_p50s, wake_k;
  uint64_t batches = 0, served = 0;
  double hits = 0.0, lookups = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    const perfbench::CalibReading c0 = calib->Run();
    const std::vector<perfbench::Arrival> schedule =
        perfbench::PoissonSchedule(kFixedQps, a.seconds * 1e3 / kRounds, n,
                                   kSkew, perfbench::StreamSeed(a.seed, 100 + r));
    for (const auto& arr : schedule) {
      sched_digest.Add(&arr.due_ms, sizeof arr.due_ms)
          .Add(&arr.node, sizeof arr.node);
    }
    const uint64_t batches0 = engine.batches_dispatched();
    const uint64_t served0 = engine.queries_served();
    const serve::CacheStats cache0 = engine.GetCacheStats();
    const auto first = static_cast<int64_t>(rec.latency_ms().size());
    Phase fixed, sat;
    const double w0 = wake.RunMs();
    PlayOpenLoop(&engine, schedule, &fixed, &rec);
    const double w1 = wake.RunMs();
    batches += engine.batches_dispatched() - batches0;
    served += engine.queries_served() - served0;
    const serve::CacheStats cache1 = engine.GetCacheStats();
    hits += static_cast<double>((cache1.accel_hits - cache0.accel_hits) +
                                (cache1.host_hits - cache0.host_hits));
    lookups += static_cast<double>(cache1.lookups() - cache0.lookups());
    const std::vector<double> latency(rec.latency_ms().begin() + first,
                                      rec.latency_ms().end());
    raw_p50s.push_back(Percentile(latency, 50));
    wake_k.push_back(kWakeRefMs / (0.5 * (w0 + w1)));
    p50s.push_back(raw_p50s.back() * wake_k.back());

    perfbench::SplitMix64 rng(perfbench::StreamSeed(a.seed, 200 + r));
    const std::vector<int64_t> burst = perfbench::SkewedNodes(
        n, kSaturationQueries / kRounds, kSkew, &rng);
    const double raw_qps = Saturate(&engine, burst, &sat);
    if (traced) {
      // The same burst with the kernels on the pool.
      parallel::SetNumThreads(kPoolProbeThreads);
      pool_scaling.push_back(Saturate(&engine, burst, &sat) / raw_qps);
      parallel::SetNumThreads(kThreads);
    }

    const double raw_infer = OfflinePass(&engine, su.in.splits.test);
    if (raw_infer < 0.0) {
      rep->Check(false, "offline ServeBatch over the test split");
      return;
    }
    // Time to a serving engine from the loaded checkpoint image.
    double raw_restore = 0.0;
    {
      const Clock::time_point t0 = Clock::now();
      const std::unique_ptr<serve::Engine> restored =
          StartEngine(su.ckpt, rep);
      raw_restore = MsSince(t0);
      if (restored == nullptr) return;
    }  // the engine's teardown falls outside the timer
    const double k = Factors(c0, calib->Run()).memory;
    qps.push_back(raw_qps / k);
    infer_ms.push_back(k * raw_infer);
    restore_ms.push_back(k * raw_restore);
    raw_qps_v.push_back(raw_qps);
    memory_k.push_back(k);

    // Correctness of this round's queries, checked while the engine is
    // idle between rounds: bit-identity to singleton serving, accounting.
    mismatches +=
        CountMismatches(&engine, fixed.nodes, fixed.results, &reference) +
        CountMismatches(&engine, sat.nodes, sat.results, &reference);
    fixed_tally += Classify(fixed.results, &latency);
    sat_tally += Classify(sat.results, nullptr);
  }
  std::printf("schedule digest: %s (%llu arrivals in %d rounds)\n",
              sched_digest.Hex().c_str(),
              static_cast<unsigned long long>(fixed_tally.offered), kRounds);
  const size_t peak_accel = DeviceTracker::Global().peak_bytes(Device::kAccel);
  const size_t peak_host = DeviceTracker::Global().peak_bytes(Device::kHost);
  rep->Check(mismatches == 0,
             "admitted logits byte-equal singleton ServeBatch (" +
                 std::to_string(mismatches) + " differ)");
  // The engine's own counters must account for every offered query.
  const serve::OverloadStats ov1 = engine.GetOverloadStats();
  const uint64_t attempted = fixed_tally.offered + sat_tally.offered;
  rep->Check(perfbench::AccountingHolds(
                 attempted, ov1.served_ok - ov0.served_ok,
                 ov1.shed_deadline - ov0.shed_deadline,
                 fixed_tally.failed + sat_tally.failed) &&
                 ov1.served_ok - ov0.served_ok ==
                     fixed_tally.ok + sat_tally.ok,
             "offered == ok + deadline_shed + failed (engine counters)");
  const uint64_t missed = fixed_tally.misses() + sat_tally.misses();
  rep->Count(attempted, missed);

  const std::vector<double>& lat = rec.latency_ms();
  const double raw_p50 = Median(raw_p50s);
  const double p99 = Percentile(lat, 99);
  std::printf(
      "  fixed rate: offered %llu, ok %llu, deadline_shed %llu, failed %llu, "
      "late %llu; latency from due p50 %.4f p90 %.4f p99 %.4f p99.9 %.4f "
      "max %.4f ms (n=%zu; p50 is the median of %d round p50s); generator "
      "late p99 %.4f max %.4f ms\n",
      static_cast<unsigned long long>(fixed_tally.offered),
      static_cast<unsigned long long>(fixed_tally.ok),
      static_cast<unsigned long long>(fixed_tally.deadline_shed),
      static_cast<unsigned long long>(fixed_tally.failed),
      static_cast<unsigned long long>(fixed_tally.late), raw_p50,
      Percentile(lat, 90), p99,
      Percentile(lat, 99.9), Percentile(lat, 100), lat.size(), kRounds,
      Percentile(rec.lateness_ms(), 99), Percentile(rec.lateness_ms(), 100));
  std::printf("  saturation: offered %llu, ok %llu\n",
              static_cast<unsigned long long>(sat_tally.offered),
              static_cast<unsigned long long>(sat_tally.ok));
  PrintSamples("saturation", qps, "qps");
  PrintSamples("round p50 from due (raw)", raw_p50s, "ms");
  PrintSamples("host wake factor", wake_k, "x");
  PrintSamples("round p50 from due", p50s, "ms");
  const double mean_batch =
      batches > 0 ? static_cast<double>(served) / static_cast<double>(batches)
                  : 0.0;
  std::printf("  fixed-rate batches %llu, mean batch %.3f, cache hit rate "
              "%.4f\n",
              static_cast<unsigned long long>(batches), mean_batch,
              lookups > 0.0 ? hits / lookups : 0.0);

  if (!traced) {
    PrintSamples("setup (raw)", raw_setup, "s");
    PrintSamples("saturation (raw)", raw_qps_v, "qps");
    PrintSamples("host speed factor, memory", memory_k, "x");
    PrintSamples("setup", setup_s, "s");
    PrintSamples("offline test-split inference", infer_ms, "ms");
    PrintSamples("restore+start", restore_ms, "ms");
    rep->Set("setup_s", Median(setup_s));
    rep->Set("latency_ms", Median(p50s));
    rep->Set("prep_ms", Median(restore_ms));
    rep->Set("infer_ms", Median(infer_ms));
    rep->Set("rate_per_s", Median(qps));
    rep->Set("peak_accel_mb", Mb(peak_accel));
    rep->Set("peak_host_mb", Mb(peak_host));
    rep->Set("ok_ratio", 1.0 - static_cast<double>(missed) /
                                   static_cast<double>(attempted));
    return;
  }

  rep->Set("graph.generate_ms", t->SelfMsByName("graph.generate"));
  rep->Set("sparse.normalize_ms", t->SelfMsByName("sparse.normalize"));
  rep->Set("serve.p99_ms", p99);
  rep->Set("serve.mean_batch", mean_batch);
  rep->Set("serve.batches", static_cast<double>(batches));
  rep->Set("serve.cache_hit_rate", lookups > 0.0 ? hits / lookups : 0.0);
  rep->Set("serve.deadline_shed", static_cast<double>(
                                      fixed_tally.deadline_shed +
                                      sat_tally.deadline_shed));
  rep->Set("serve.failed",
           static_cast<double>(fixed_tally.failed + sat_tally.failed));
  rep->Set("serve.gen_late_p99_ms", Percentile(rec.lateness_ms(), 99));
  rep->Set("serve.gen_late_max_ms", Percentile(rec.lateness_ms(), 100));

  // Service time of one batch at the mean batch size, and its split into
  // gather, combine and φ1 on a second restored copy of the same model.
  const auto b = static_cast<size_t>(std::max(1.0, std::round(mean_batch)));
  auto model = serve::RestoreModel(su.ckpt);
  if (!model.ok()) {
    rep->Check(false, "restore probe model: " + model.status().ToString());
    return;
  }
  serve::ServableModel& m = model.value();
  perfbench::SplitMix64 rng(perfbench::StreamSeed(a.seed, 4));
  std::vector<double> service, gather, combine, infer;
  constexpr int kServiceReps = 200;
  for (int r = 0; r < kServiceReps; ++r) {
    const std::vector<int64_t> nodes =
        perfbench::SkewedNodes(n, b, kSkew, &rng);
    Matrix logits;
    Clock::time_point t0 = Clock::now();
    if (!engine.ServeBatch(nodes, &logits).ok()) {
      rep->Check(false, "service probe ServeBatch");
      return;
    }
    service.push_back(MsSince(t0));
    const std::vector<int32_t> ids(nodes.begin(), nodes.end());
    std::vector<Matrix> hold(m.terms.size());
    std::vector<const Matrix*> ptrs;
    t0 = Clock::now();
    {
      Tracer::Scope s(t, "tensor.gather");
      for (size_t i = 0; i < m.terms.size(); ++i) {
        hold[i] = m.terms[i].GatherRows(ids);
        hold[i].MoveToDevice(Device::kAccel);
      }
    }
    gather.push_back(MsSince(t0));
    for (const auto& h : hold) ptrs.push_back(&h);
    Matrix h, out;
    t0 = Clock::now();
    {
      Tracer::Scope s(t, "core.combine");
      m.filter->CombineTerms(ptrs, &h, /*cache=*/false);
    }
    combine.push_back(MsSince(t0));
    t0 = Clock::now();
    {
      Tracer::Scope s(t, "nn.infer");
      m.phi1.ForwardInference(h, &out);
    }
    infer.push_back(MsSince(t0));
  }
  std::printf("  service probe: %d batches of %zu rows\n", kServiceReps, b);
  rep->Set("serve.service_ms", Median(service));
  rep->Set("serve.wait_ms", raw_p50 - Median(service));
  rep->Set("tensor.gather_ms", Median(gather));
  rep->Set("core.combine_ms", Median(combine));
  rep->Set("nn.infer_ms", Median(infer));

  std::printf("  saturation qps at %d kernel threads over 1 thread, median "
              "of %zu bursts\n",
              kPoolProbeThreads, pool_scaling.size());
  rep->Set("tensor.pool_scaling", Median(pool_scaling));
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work-dir") {
      a->work_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->seconds > 0.0 &&
         (a->workload == "mb_train" || a->workload == "serve_open");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload mb_train|serve_open "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  std::printf("workload %s seed %llu seconds %.3g trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("machine: cpu \"%s\", %u hardware threads\n", CpuModel().c_str(),
              std::thread::hardware_concurrency());
  std::printf("build: %s, flags \"%s\"\n", __VERSION__, PERFBENCH_BUILD_FLAGS);

  Report rep(a.trace);
  perfbench::Calibrator calib(kCalibShape);
  Tracer tracer;
  Tracer* t = a.trace ? &tracer : nullptr;
  if (a.workload == "serve_open") {
    RunServing(a, t, &calib, &rep);
  } else if (a.trace) {
    TraceTraining(a, t, &rep);
  } else {
    RunTraining(a, &calib, &rep);
  }
  if (!a.trace) {
    // The calibrator's buffers stay resident for the whole run, so the peak
    // includes them; rss_mb is the program's own share.
    const double rss = PeakRssMb();
    const double calib_mb = Mb(calib.resident_bytes());
    std::printf("  peak rss %.3f MB, of which calibration buffers %.3f MB\n",
                rss, calib_mb);
    rep.Set("rss_mb", rss - calib_mb);
  }
  if (rep.attempted() == 0) {
    rep.Check(false, "at least one operation attempted");
    rep.Count(1, 1);
  }
  const std::string line = rep.Finish();
  if (a.trace) {
    const std::string path = a.work_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    std::printf("spans: %zu written to %s (%s)\n", tracer.spans().size(),
                path.c_str(), tracer.WriteChromeTrace(path) ? "ok" : "FAILED");
  }
  std::printf("%s\n", line.c_str());
  return rep.correct() ? 0 : 1;
}

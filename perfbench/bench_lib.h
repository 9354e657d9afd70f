// Pure helpers of the repository benchmark: exact percentiles, the seeded
// open-loop arrival schedule, latency measured from the due time, logit
// byte checks, input digests and the in-memory span tracer.
//
// Nothing here links the repository's libraries, so an edit under src/
// cannot change how the benchmark generates load or computes a statistic.

#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics over raw samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 when empty.
double Median(std::vector<double> samples);

/// Nearest-rank percentile: the ceil(p/100 * count)-th smallest sample, an
/// exact sample value (never a bucket bound). p in [0, 100]; 0 when empty.
double Percentile(std::vector<double> samples, double p);

// ---------------------------------------------------------------------------
// Seeded generation, independent of the library's own RNG.

/// SplitMix64: the benchmark's own generator for every input it draws.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Seed of the independent stream `tag` of a run seeded with `seed`.
/// Hashing both keeps streams apart: seeding SplitMix64 with seed * c + tag
/// directly would make seed s + 1 replay seed s's stream one draw later.
uint64_t StreamSeed(uint64_t seed, uint64_t tag);

/// Skewed node choice: `hot_share` of draws fall on the first `hot_frac`
/// of the node ids, the rest are uniform over all nodes.
struct Skew {
  double hot_share = 0.8;
  double hot_frac = 0.1;
};

/// `count` node ids drawn under `skew` from `rng`.
std::vector<int64_t> SkewedNodes(int64_t n, size_t count, const Skew& skew,
                                 SplitMix64* rng);

/// One open-loop query: when it is due (ms from the phase start) and which
/// node it asks for.
struct Arrival {
  double due_ms = 0.0;
  int64_t node = 0;
};

/// Poisson arrivals at `qps` over `duration_ms`, nodes drawn under `skew`.
/// The same (qps, duration, n, skew, seed) always gives the same schedule.
std::vector<Arrival> PoissonSchedule(double qps, double duration_ms,
                                     int64_t n, const Skew& skew,
                                     uint64_t seed);

// ---------------------------------------------------------------------------
// Host-speed calibration.

/// Shape of the calibration work: mini-batch steps of a first MLP layer fed
/// from gathered rows of precomputed hop terms.
struct CalibShape {
  int64_t terms = 0;       ///< tables gathered from, one per hop term
  int64_t table_rows = 0;  ///< rows per table
  int64_t width = 0;       ///< floats per row, the layer's input width
  int64_t hidden = 0;      ///< the layer's output width
  int64_t batch = 0;       ///< rows gathered per step
  int steps = 0;           ///< steps per run
};

/// Wall times of one calibration run, ms.
struct CalibReading {
  double step_ms = 0.0;    ///< the mini-batch-step work
  double memory_ms = 0.0;  ///< the memory-bound work
};

/// Fixed work owned by the benchmark, all on the calling thread, whose wall
/// time tracks how fast the core, the shared cache and memory run right
/// now. Nothing under src/ can change it, so dividing a workload time by it
/// removes the host's speed drift but not a code change.
///
/// Host slowdowns do not hit all work alike, so the work comes in two
/// shapes, timed separately:
///  - step: the shape of the gated MB epoch. Each step gathers `batch`
///    random rows from every table into its own buffer and sums the buffers
///    (as GatherRows and CombineTerms do), then runs the layer's three GEMMs
///    on that batch: the forward product and the weight gradient in i-k-j
///    order, the input gradient as double-accumulated dot products.
///  - memory: a pointer chase through a 64 MiB random cycle, two streaming
///    passes over it and a dependent floating-point chain, the shape of
///    graph generation and SpMM.
class Calibrator {
 public:
  explicit Calibrator(const CalibShape& shape);
  /// Runs both works once.
  CalibReading Run();
  /// Bytes the calibrator holds for the life of the process, all touched.
  size_t resident_bytes() const;

 private:
  double RunStepMs();
  double RunMemoryMs();

  CalibShape shape_;
  std::vector<float> tables_;    ///< terms x table_rows x width
  std::vector<int32_t> rows_;    ///< steps x batch gathered row ids
  std::vector<float> gathered_;  ///< terms x batch x width
  std::vector<float> x_;         ///< batch x width, summed terms
  std::vector<float> w_;         ///< width x hidden
  std::vector<float> g_;         ///< batch x hidden, output gradient
  std::vector<float> out_;       ///< batch x hidden
  std::vector<float> w_grad_;    ///< width x hidden
  std::vector<float> x_grad_;    ///< batch x width
  std::vector<uint32_t> next_;   ///< one random cycle over all slots
  double sink_ = 0.0;
};

/// Host wake-up calibration for open-loop latency, the shape of one query's
/// path through a held batch: the calling thread sleeps until a due time
/// and wakes an idle worker through a condition variable; the worker holds
/// until `hold_ms` after the wake-up was sent, in a timed wait, and records
/// how long after the due time it finished. At a low rate the serving
/// latency is mostly these sleeps, wake-ups and timers, and on a shared VM
/// their cost swung several-fold between runs. Owned by the benchmark, so
/// nothing under src/ can change it.
class WakeCalibrator {
 public:
  WakeCalibrator(double hold_ms, int handoffs);
  ~WakeCalibrator();
  WakeCalibrator(const WakeCalibrator&) = delete;
  WakeCalibrator& operator=(const WakeCalibrator&) = delete;

  /// Runs the handoffs, one every hold + 0.3 ms; returns the median
  /// due-to-done time in ms.
  double RunMs();

 private:
  using Clock = std::chrono::steady_clock;
  void Work();

  const std::chrono::duration<double, std::milli> hold_;
  const int handoffs_;
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable hold_cv_;  ///< never notified: a pure timed wait
  std::condition_variable done_cv_;
  bool stop_ = false;
  /// Due and send time of each handoff of the current run, in order; the
  /// worker serves them one at a time, so none is lost behind a stall.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> sent_;
  std::vector<double> done_ms_;
  std::thread worker_;
};

// ---------------------------------------------------------------------------
// Open-loop latency, measured from when each query was due.

/// Per-query record of one open-loop phase. The engine's own stopwatch
/// starts when the query is submitted, so a generator that falls behind
/// would hide its lateness; latency here adds it back.
class OpenLoopRecorder {
 public:
  /// Records one finished query: due and submit times from the phase start,
  /// and the engine's submit-to-result time.
  void Record(double due_ms, double submit_ms, double engine_ms);

  /// How late the generator submitted each query (>= 0), in record order.
  const std::vector<double>& lateness_ms() const { return late_; }
  /// Due-to-result latency of each query, in record order.
  const std::vector<double>& latency_ms() const { return latency_; }

 private:
  std::vector<double> late_;
  std::vector<double> latency_;
};

// ---------------------------------------------------------------------------
// Correctness checks.

/// True when the two rows of `count` floats are byte-identical (memcmp:
/// -0.0 differs from 0.0 and NaN payloads count).
bool RowsByteEqual(const float* a, const float* b, size_t count);

/// Serving accounting: every offered query ended as exactly one of ok,
/// deadline-shed or failed.
bool AccountingHolds(uint64_t offered, uint64_t ok, uint64_t deadline_shed,
                     uint64_t failed);

/// FNV-1a 64-bit digest over raw bytes, for input and output fingerprints.
class Digest {
 public:
  Digest& Add(const void* data, size_t bytes);
  template <typename T>
  Digest& AddVector(const std::vector<T>& v) {
    return Add(v.data(), v.size() * sizeof(T));
  }
  uint64_t value() const { return h_; }
  /// 16 lowercase hex digits.
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Span tracer for the traced pass.

/// Records one span per traced call: name, start, end and parent, kept in
/// memory until WriteChromeTrace. Single-threaded: the benchmark only traces
/// calls made from its own main thread.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int64_t start_ns = 0;  ///< from the tracer's creation
    int64_t end_ns = 0;
    int parent = -1;       ///< index into spans(), -1 for a root
  };

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer();

  /// Opens a span now, as a child of the innermost open span.
  int Begin(const std::string& name);
  /// Closes span `index`, which must be the innermost open span.
  void End(int index);
  /// Adds an already-measured span (for tests and replays of known times).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its direct children cover, in ms.
  double SelfMs(int index) const;
  /// Span duration in ms.
  double TotalMs(int index) const;

  /// Sum of self times of every span with this name, optionally only those
  /// inside the span `within` (any depth). ms.
  double SelfMsByName(const std::string& name, int within = -1) const;

  /// Writes every span as Chrome trace-event JSON ("X" events), readable
  /// by Perfetto and chrome://tracing. Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool Inside(int index, int ancestor) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Result line.

/// One metric of the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics. Values print with 17 significant
/// digits; a non-finite value prints as 0 and marks the result incorrect.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_

// Batched inference engine over a restored decoupled model.
//
// Serving one node is a term-bundle gather + CombineTerms + φ1 forward
// (paper Section 2.2: under the decoupled scheme the graph work happened
// once, at precompute). Both CombineTerms (per-term Axpy) and the φ1 GEMM
// are row-independent, so serving queries in a batch is *bit-identical* to
// serving them one by one — the engine exploits that: Submit() enqueues a
// query, and a dispatcher thread coalesces whatever is waiting into batches
// of up to `max_batch`, holding an almost-empty batch open at most the
// current hold time (measured from the oldest enqueued query). Batching
// amortizes the per-call kernel dispatch overhead; the determinism contract
// (docs/SERVING.md) means the batch boundaries chosen under load never
// change the logits, which tests/serve_test.cc asserts at 1 and hw threads.
//
// Overload safety (docs/SERVING.md, "Overload semantics"): the engine has
// defined behavior when offered load exceeds capacity —
//
//   * admission control — Submit() sheds with a typed kUnavailable when the
//     queue depth reaches its budget, so the queue (and therefore p99) is
//     bounded instead of growing without limit;
//   * deadline propagation — a query may carry a deadline; the dispatcher
//     sheds expired queries at *dequeue* (kDeadlineExceeded) instead of
//     spending kernel time computing logits the client already abandoned;
//   * SLO-aware adaptive batching — when a target p99 is configured, the
//     partial-batch hold time is a control variable: it shrinks when the
//     recent p99 violates the SLO or load is light, and grows toward
//     `max_wait_ms` while batches are filling and the SLO has headroom
//     (SloController below);
//   * shutdown — Stop() never leaves a future unsatisfied: it serves the
//     queue before joining the dispatcher, and the destructor does the same.
//
// All serving is serialized under one engine mutex: the filter's
// CombineTerms mutates internal cache state and the tiered bundle cache
// (serve/cache.h) rearranges tiers on every lookup. Parallelism lives
// *inside* the kernels (tensor/parallel.h), where it is deterministic.

#ifndef SGNN_SERVE_ENGINE_H_
#define SGNN_SERVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "eval/table.h"
#include "serve/cache.h"
#include "serve/checkpoint.h"
#include "serve/metrics.h"
#include "tensor/status.h"

namespace sgnn::serve {

/// AIMD-style hold-time controller: one Update per served window, fed from
/// the engine's own latency histogram (interval p99 via DiffFrom) and the
/// window's mean batch occupancy. The law, in SLO terms:
///
///   p99 > target          -> shrink (multiplicative): under overload the
///                            queue wait dominates latency; shorter holds
///                            shed latency fastest.
///   p99 ok, fill high     -> grow toward max_wait: batches fill before the
///                            hold expires, so holding longer converts SLO
///                            headroom into bigger (cheaper) batches.
///   p99 ok, fill low      -> shrink toward min_wait: light load; waiting
///                            cannot fill batches, it only adds latency.
///
/// Deliberately a plain deterministic function of its inputs so the
/// convergence tests (serve_overload_test.cc) drive it with synthetic
/// windows, no timing involved. Disabled (fixed hold) unless the target
/// p99 is positive.
class SloController {
 public:
  static constexpr double kMinWaitMs = 0.02;  ///< hold floor (no busy-poll)
  static constexpr double kGrow = 1.5;    ///< per in-SLO, high-fill window
  static constexpr double kShrink = 0.5;  ///< per violating or light window
  static constexpr int kWindow = 64;      ///< served queries per step
  /// Mean batch occupancy (batch size / max_batch) at or above which a
  /// window counts as "pressure" — batches are filling, so a longer hold
  /// buys bigger batches rather than idle waiting.
  static constexpr double kFillThreshold = 0.5;

  /// `initial_wait_ms` is also the upper bound the hold may grow back to;
  /// the floor is kMinWaitMs, or `initial_wait_ms` when that is smaller.
  SloController(double target_p99_ms, double initial_wait_ms);

  bool enabled() const { return target_p99_ms_ > 0.0; }
  double wait_ms() const { return wait_ms_; }

  /// One control step over a served window; returns the new hold time.
  double Update(double window_p99_ms, double mean_batch_fill);

 private:
  double target_p99_ms_;
  double max_wait_ms_;
  double min_wait_ms_;
  double wait_ms_;
};

/// Engine knobs (the bench_serving / bench_quant sweep axes).
struct EngineConfig {
  int max_batch = 64;        ///< dispatcher coalescing ceiling (≥ 1)
  double max_wait_ms = 1.0;  ///< max hold on a partial batch
  CacheConfig cache;         ///< bundle-cache tier budgets
  /// Queue-depth budget, in queries; 0 = unbounded.
  int max_queue = 0;
  /// p99 latency SLO of the adaptive hold-time controller; 0 keeps the hold
  /// fixed at `max_wait_ms`.
  double target_p99_ms = 0.0;
};

/// Outcome of one Submit()ed query.
struct QueryResult {
  Status status = Status::OK();
  std::vector<float> logits;  ///< num_classes entries when status is OK
  double latency_ms = 0.0;    ///< submit → fulfillment wall time
  int64_t batch = 0;          ///< size of the batch that served this query
};

/// Admission/shed counters plus the controller's live hold time. Snapshot
/// via Engine::GetOverloadStats; monotonic so benches diff across phases.
struct OverloadStats {
  uint64_t submitted = 0;        ///< Submit() calls that reached admission
  uint64_t admitted = 0;         ///< enqueued for dispatch
  uint64_t shed_queue_full = 0;  ///< kUnavailable: queue-depth budget
  uint64_t shed_deadline = 0;    ///< kDeadlineExceeded at dequeue
  uint64_t served_ok = 0;        ///< fulfilled with logits
  uint64_t served_late = 0;      ///< of served_ok: finished past deadline
  double current_wait_ms = 0.0;  ///< live partial-batch hold time

  uint64_t shed_total() const { return shed_queue_full + shed_deadline; }
  /// Fraction of admission-checked queries shed (any cause; 0 when idle).
  double ShedRate() const;
};

/// Serves node-classification queries against one restored model.
class Engine {
 public:
  Engine(ServableModel model, EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int64_t num_nodes() const { return model_.meta.n; }
  int64_t num_classes() const { return model_.meta.num_classes; }
  const CheckpointMeta& meta() const { return model_.meta; }

  /// Synchronous batched serving: fills `logits` with one row per node (on
  /// the accelerator, shape |nodes| x num_classes). InvalidArgument when any
  /// node id is out of [0, num_nodes). This is also the singleton baseline:
  /// calling it once per node gives bit-identical rows to one big batch.
  /// Bypasses admission control — it holds the serving lock itself.
  [[nodiscard]] Status ServeBatch(const std::vector<int64_t>& nodes,
                                  Matrix* logits);

  /// Starts the dispatcher thread (idempotent). Submit before Start fails
  /// with FailedPrecondition.
  void Start();

  /// Joins the dispatcher after serving every queued query (idempotent;
  /// also run by the destructor).
  void Stop();

  /// Enqueues one query for batched dispatch. The future is fulfilled by
  /// the dispatcher; an out-of-range node fails immediately without
  /// polluting the batch it would have joined. Admission control may shed
  /// immediately with kUnavailable. `deadline_ms` (> 0) bounds the query's
  /// useful lifetime from this call; an expired query is shed at dequeue
  /// with kDeadlineExceeded instead of being computed. 0 means none.
  std::future<QueryResult> Submit(int64_t node, double deadline_ms = 0.0);

  /// Resident-byte snapshot of the bundle cache, split by tier (the
  /// cache-fit axis of bench_quant).
  struct CacheUsage {
    size_t accel_bytes = 0;
    size_t host_bytes = 0;
    size_t entries = 0;
  };
  CacheUsage GetCacheUsage() const;

  /// Snapshots (copies) taken under the serving lock — safe while running.
  CacheStats GetCacheStats() const;
  LatencyHistogram GetLatency() const;
  OverloadStats GetOverloadStats() const;
  uint64_t queries_served() const;
  uint64_t batches_dispatched() const;

 private:
  struct Pending {
    int64_t node = 0;
    double deadline_ms = 0.0;  ///< 0 = none
    std::promise<QueryResult> promise;
    eval::Stopwatch watch;  ///< started at Submit
  };

  void DispatchLoop();
  void ServeAndFulfill(std::vector<Pending>* batch);
  void RejectPending(std::vector<Pending>* batch, const Status& status);
  [[nodiscard]] Status ServeBatchLocked(const std::vector<int64_t>& nodes,
                                        Matrix* logits)
      SGNN_REQUIRES(serve_mu_);
  [[nodiscard]] Status ServeQuantLocked(const std::vector<int64_t>& nodes,
                                        Matrix* logits)
      SGNN_REQUIRES(serve_mu_);

  ServableModel model_;
  EngineConfig config_;
  /// (num_terms x F) effective combine weights for the fused path: probed
  /// combine weight x per-term channel scale (int8) or the weight alone
  /// (fp16). Empty for an fp model.
  Matrix eff_;

  mutable std::mutex serve_mu_;  ///< model, cache, metrics
  TieredCache cache_ SGNN_GUARDED_BY(serve_mu_);
  LatencyHistogram latency_ SGNN_GUARDED_BY(serve_mu_);
  uint64_t queries_ SGNN_GUARDED_BY(serve_mu_) = 0;
  uint64_t batches_ SGNN_GUARDED_BY(serve_mu_) = 0;

  // SLO controller: owned by the dispatcher thread (single writer); the
  // live hold time is published through an atomic so Submit's wait loop and
  // stats snapshots read it without the serving lock. The controller and
  // its window bookkeeping are still read/written only under serve_mu_
  // (the dispatcher steps it right after serving a batch).
  SloController slo_ SGNN_GUARDED_BY(serve_mu_);
  std::atomic<double> current_wait_ms_;  ///< lock-free; see comment above
  /// latency_ at the last SLO step
  LatencyHistogram window_snapshot_ SGNN_GUARDED_BY(serve_mu_);
  uint64_t window_queries_ SGNN_GUARDED_BY(serve_mu_) = 0;
  uint64_t window_batches_ SGNN_GUARDED_BY(serve_mu_) = 0;

  mutable std::mutex queue_mu_;  ///< queue + lifecycle + overload counters;
                                 ///< never held across serving
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_ SGNN_GUARDED_BY(queue_mu_);
  OverloadStats overload_ SGNN_GUARDED_BY(queue_mu_);
  bool running_ SGNN_GUARDED_BY(queue_mu_) = false;
  bool stopping_ SGNN_GUARDED_BY(queue_mu_) = false;
  std::thread dispatcher_ SGNN_GUARDED_BY(queue_mu_);
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_ENGINE_H_

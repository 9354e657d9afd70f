// Arrival-process load generator for the serving engine.
//
// bench_serving's original open loop submits every query at t=0 — a
// degenerate arrival process that measures throughput but says nothing
// about behavior under *traffic*. This module generates seeded arrival
// schedules from three processes that bracket real load (GNNBENCH/gSuite
// argue inference benchmarking is the under-measured half; bursty arrivals
// are the under-measured half of *that*):
//
//   * Poisson — memoryless arrivals at a constant mean rate; the classic
//     open-loop baseline.
//   * ON/OFF — square-wave bursts of 50 ms period: the rate is 5 x
//     `mean_qps` during the ON window, the first 40% of each period, and 0
//     in the rest. The long-run mean is therefore 2 x `mean_qps`, not
//     `mean_qps`: at this shape the OFF windows are dry. This is the
//     process that trips admission control.
//   * diurnal replay — a built-in 24-bin daily rate profile (overnight
//     trough, evening peak) compressed onto the run duration with mean
//     `mean_qps`, for slow ramp behavior (cache warm-up, SLO controller
//     tracking).
//
// Every process draws 80% of its queries from the hottest 10% of nodes
// (the skew tiered caching exists for).
//
// Schedules are produced by thinning a homogeneous Poisson process at the
// peak rate through the deterministic seeded Rng, so a scenario replays
// bit-identically: same seed, same arrivals, same node ids, same retry
// jitter. Only the pacing sleeps read the wall clock.
//
// Replay() drives a schedule against a submit function (an Engine's) in
// real time and aggregates goodput/shed-rate/latency, retrying
// kUnavailable sheds through runtime::RetryWithBackoff when configured —
// the well-behaved-client half of the admission-control contract.

#ifndef SGNN_SERVE_LOADGEN_H_
#define SGNN_SERVE_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/metrics.h"
#include "tensor/rng.h"

namespace sgnn::serve {

enum class ArrivalProcess {
  kPoisson = 0,
  kOnOff,
  kDiurnal,
};

/// Load-shape knobs; defaults give a modest Poisson stream.
struct LoadGenConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Base arrival rate: the long-run average for Poisson and diurnal; ON/OFF
  /// offers 5x it in ON windows and averages 2x it.
  double mean_qps = 2000.0;
  double duration_ms = 250.0; ///< schedule length
  double deadline_ms = 0.0;  ///< per-query deadline passed to Submit; 0=none
  uint64_t seed = 1;
};

/// One scheduled query.
struct Arrival {
  double at_ms = 0.0;        ///< offset from replay start
  int64_t node = 0;
  double deadline_ms = 0.0;  ///< 0 = none
};

/// The instantaneous arrival rate λ(t) in qps for `config` — the rate the
/// thinning sampler realizes, exposed so tests can check schedules against
/// the intended shape.
double RateAtMs(const LoadGenConfig& config, double t_ms);

/// Generates the full seeded schedule over [0, duration_ms), node ids in
/// [0, num_nodes). Deterministic in `config.seed`.
std::vector<Arrival> MakeSchedule(const LoadGenConfig& config,
                                  int64_t num_nodes);

/// Replay policy: how the driver reacts to kUnavailable sheds.
struct ReplayConfig {
  bool retry = false;  ///< re-submit shed queries through RetryWithBackoff
  /// Called with every query's final outcome (after any retries), in
  /// schedule order — benches hang the admitted-logits-vs-singleton
  /// bit-identity check here.
  std::function<void(const Arrival&, const QueryResult&)> on_result;
};

/// Aggregated outcome of one replay.
struct ReplayStats {
  uint64_t offered = 0;        ///< arrivals submitted
  uint64_t ok = 0;             ///< produced logits
  uint64_t ok_in_deadline = 0; ///< of ok: within the query's deadline
  uint64_t shed = 0;           ///< kUnavailable (after retries, if any)
  uint64_t deadline_shed = 0;  ///< kDeadlineExceeded at dequeue
  uint64_t failed = 0;         ///< any other terminal error
  uint64_t retried = 0;        ///< queries that needed >= 1 retry
  uint64_t recovered = 0;      ///< retried queries that ended ok
  double wall_ms = 0.0;
  LatencyHistogram latency;    ///< engine-measured, ok queries only

  /// In-deadline completions per wall second — the overload-era success
  /// metric (plain throughput counts late answers nobody used).
  double GoodputQps() const;
  /// Fraction of offered queries shed (kUnavailable + deadline).
  double ShedRate() const;
};

/// Submit target: an Engine::Submit bound by the caller.
using SubmitFn =
    std::function<std::future<QueryResult>(int64_t node, double deadline_ms)>;

/// Plays `schedule` against `submit` in real time: sleeps to each arrival
/// offset, submits, then collects every future (so queue pressure comes
/// from the arrival process, not from the driver blocking). Shed queries
/// are retried synchronously afterwards when `config.retry` — the backoff
/// jitter draws from `rng` to stay replayable.
ReplayStats Replay(const std::vector<Arrival>& schedule,
                   const SubmitFn& submit, const ReplayConfig& config,
                   Rng* rng);

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_LOADGEN_H_

// Client-side retry with seeded, jittered exponential backoff.
//
// The serving engine sheds load with a typed kUnavailable when admission
// control trips (docs/SERVING.md, "Overload semantics"). kUnavailable is the
// *only* retryable code in the taxonomy: it means "correct request, bad
// moment" — backing off and retrying is how a well-behaved client converts a
// burst into goodput instead of a retry storm. Every other code (bad node
// id, stopped engine, missed deadline) is terminal and returned immediately.
//
// Backoff delays are drawn from a caller-owned seeded Rng, so a load
// generator's retry schedule replays bit-identically run to run; only the
// actual sleeping reads the wall clock. The schedule is fixed: at most 5
// attempts, 0.5 ms before the second, doubling per retry up to 50 ms, each
// sleep scaled by a seeded draw from [0.75, 1.25] — 7.5 ms of nominal sleep
// in all, at least 5.6 ms.

#ifndef SGNN_RUNTIME_RETRY_H_
#define SGNN_RUNTIME_RETRY_H_

#include <functional>

#include "tensor/rng.h"
#include "tensor/status.h"

namespace sgnn::runtime {

/// What the retry loop did — for goodput accounting in the load generator.
struct RetryStats {
  int attempts = 0;       ///< operations actually invoked
  double slept_ms = 0.0;  ///< total backoff sleep (scheduled, seeded)
};

/// Invokes `op` until it returns anything other than kUnavailable, up to
/// 5 tries, sleeping BackoffDelayMs between attempts. Returns the first
/// non-kUnavailable status (OK or a terminal error), or the last
/// kUnavailable when the attempts run out. `rng` drives the jitter and must
/// outlive the call; `stats` (optional) reports attempts and total
/// scheduled sleep.
[[nodiscard]] Status RetryWithBackoff(const std::function<Status()>& op,
                                      Rng* rng, RetryStats* stats = nullptr);

/// The delay (ms) scheduled before retry number `retry` (1-based), jittered
/// by `rng` (exact when null). Exposed so tests can assert the schedule
/// without sleeping.
double BackoffDelayMs(int retry, Rng* rng);

}  // namespace sgnn::runtime

#endif  // SGNN_RUNTIME_RETRY_H_

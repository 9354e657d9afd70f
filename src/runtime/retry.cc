#include "runtime/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace sgnn::runtime {

namespace {

constexpr int kMaxAttempts = 5;            ///< total tries, the first included
constexpr double kInitialDelayMs = 0.5;    ///< sleep before the second try
constexpr double kMultiplier = 2.0;        ///< delay growth per retry
constexpr double kMaxDelayMs = 50.0;       ///< per-sleep ceiling
/// Each sleep is scaled by a seeded draw from [1 - kJitter, 1 + kJitter].
constexpr double kJitter = 0.25;

}  // namespace

double BackoffDelayMs(int retry, Rng* rng) {
  double delay = kInitialDelayMs;
  for (int i = 1; i < retry; ++i) {
    delay *= kMultiplier;
    if (delay >= kMaxDelayMs) break;
  }
  delay = std::min(delay, kMaxDelayMs);
  if (rng != nullptr) delay *= rng->Uniform(1.0 - kJitter, 1.0 + kJitter);
  return delay;
}

Status RetryWithBackoff(const std::function<Status()>& op, Rng* rng,
                        RetryStats* stats) {
  RetryStats local;
  Status last = Status::OK();
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    ++local.attempts;
    last = op();
    if (last.code() != StatusCode::kUnavailable) break;
    if (attempt == kMaxAttempts) break;
    const double delay = BackoffDelayMs(attempt, rng);
    local.slept_ms += delay;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay));
  }
  if (stats != nullptr) *stats = local;
  return last;
}

}  // namespace sgnn::runtime

// Serving latency/throughput metrics.
//
// Fixed-bucket log-spaced latency histogram: bucket i covers
// (bound[i-1], bound[i]] ms with bounds growing geometrically from 1 µs to
// past 60 s, so a single preallocated array spans cache-hit microseconds and
// cold-precompute seconds with ~35% relative resolution. Percentiles read
// the cumulative counts and report the containing bucket's upper bound,
// clamped to the recorded maximum — a deterministic over-estimate, which is
// the right bias for latency SLOs.
// Recording is O(log buckets) with no allocation, so it sits inside the
// engine's dispatch loop without perturbing the latencies it measures.

#ifndef SGNN_SERVE_METRICS_H_
#define SGNN_SERVE_METRICS_H_

#include <array>
#include <cstdint>

namespace sgnn::serve {

/// Fixed-bucket latency histogram over milliseconds.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 64;

  LatencyHistogram();

  /// Records one latency sample (negative samples clamp to 0).
  void Record(double ms);

  uint64_t count() const { return count_; }
  double total_ms() const { return total_ms_; }
  double max_ms() const { return max_ms_; }
  /// Arithmetic mean (0 when empty) — for throughput sanity checks only;
  /// report percentiles, not means, for latency.
  double MeanMs() const;

  /// Latency at percentile `p` ∈ [0, 100]: the upper bound of the bucket
  /// holding the ceil(p% · count)-th smallest sample, clamped to max_ms()
  /// (the exact maximum for the overflow bucket). 0 when empty.
  double PercentileMs(double p) const;

  /// The histogram of samples recorded since `earlier` was snapshotted from
  /// this histogram (per-bucket count subtraction; `earlier` must be a past
  /// copy of *this*). This is how the engine's SLO controller reads a
  /// *recent* p99 out of the cumulative histogram without a second recording
  /// path: snapshot, serve a window, diff, read PercentileMs.
  LatencyHistogram DiffFrom(const LatencyHistogram& earlier) const;

  void Reset();

 private:
  std::array<double, kNumBuckets> bounds_;  ///< upper bounds, ms
  std::array<uint64_t, kNumBuckets> counts_;
  uint64_t count_ = 0;
  double total_ms_ = 0.0;
  double max_ms_ = 0.0;
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_METRICS_H_

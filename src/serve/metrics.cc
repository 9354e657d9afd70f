#include "serve/metrics.h"

#include <algorithm>
#include <cmath>

namespace sgnn::serve {

LatencyHistogram::LatencyHistogram() {
  // 1 µs · 1.35^i: bucket 62 tops out at ~65 s; bucket 63 catches the rest.
  double bound = 1e-3;
  for (int i = 0; i < kNumBuckets; ++i) {
    bounds_[static_cast<size_t>(i)] = bound;
    bound *= 1.35;
  }
  counts_.fill(0);
}

void LatencyHistogram::Record(double ms) {
  if (ms < 0.0 || std::isnan(ms)) ms = 0.0;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end() - 1, ms);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  ++count_;
  total_ms_ += ms;
  max_ms_ = std::max(max_ms_, ms);
}

double LatencyHistogram::MeanMs() const {
  return count_ == 0 ? 0.0 : total_ms_ / static_cast<double>(count_);
}

double LatencyHistogram::PercentileMs(double p) const {
  if (count_ == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts_[static_cast<size_t>(i)];
    if (seen >= rank) {
      // No sample exceeds max_ms_, so clamping keeps the over-estimate.
      return i == kNumBuckets - 1
                 ? max_ms_
                 : std::min(max_ms_, bounds_[static_cast<size_t>(i)]);
    }
  }
  return max_ms_;
}

LatencyHistogram LatencyHistogram::DiffFrom(
    const LatencyHistogram& earlier) const {
  LatencyHistogram out;
  for (int i = 0; i < kNumBuckets; ++i) {
    const auto k = static_cast<size_t>(i);
    out.counts_[k] = counts_[k] >= earlier.counts_[k]
                         ? counts_[k] - earlier.counts_[k]
                         : 0;
    out.count_ += out.counts_[k];
  }
  out.total_ms_ = std::max(0.0, total_ms_ - earlier.total_ms_);
  // The interval's true max is unknown (only the running max is kept); the
  // running max is a safe over-estimate with the same SLO-friendly bias as
  // the bucket bounds.
  out.max_ms_ = max_ms_;
  return out;
}

void LatencyHistogram::Reset() {
  counts_.fill(0);
  count_ = 0;
  total_ms_ = 0.0;
  max_ms_ = 0.0;
}

}  // namespace sgnn::serve

// Deterministic pseudo-random number generation.
//
// All experiments run with explicit seeds so paper-style "10 runs with
// different random seeds" evaluations are reproducible bit-for-bit.

#ifndef SGNN_TENSOR_RNG_H_
#define SGNN_TENSOR_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sgnn {

/// xoshiro256** generator seeded via SplitMix64. Fast, high-quality,
/// deterministic across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  /// Seeds the four-word state from a single 64-bit seed via SplitMix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit draw.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (cached second draw).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Fisher-Yates shuffle of `v` in place: for i = size() down to 2, swaps
/// element i-1 with the element UniformInt(i) picks.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const auto j = static_cast<size_t>(rng->UniformInt(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace sgnn

#endif  // SGNN_TENSOR_RNG_H_

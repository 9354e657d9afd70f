#include "eval/spectrum.h"

#include <cmath>

#include "tensor/ops.h"
#include "tensor/status.h"

namespace sgnn::eval {

namespace {

/// Chebyshev moments of every expansion (resolution).
constexpr int kMoments = 48;
/// Random probe vectors of the density estimate (variance).
constexpr int kProbes = 8;

/// Jackson damping coefficient g_k of the kMoments expansion; suppresses
/// Gibbs oscillations of the truncated Chebyshev series.
double Jackson(int k) {
  const double m = kMoments + 1.0;
  return ((m - k) * std::cos(M_PI * k / m) +
          std::sin(M_PI * k / m) / std::tan(M_PI / m)) /
         m;
}

/// y = B v where B = L̃ - I = -Ã (spectrum in [-1, 1]).
void ApplyShifted(const sparse::CsrMatrix& norm, const std::vector<float>& v,
                  std::vector<float>* y) {
  norm.SpMV(v, y);
  for (auto& e : *y) e = -e;
}

/// Chebyshev coefficients of the indicator of [a, b] ⊂ [-1, 1].
std::vector<double> IndicatorCoefficients(double a, double b) {
  std::vector<double> c(static_cast<size_t>(kMoments));
  const double ta = std::acos(std::max(-1.0, std::min(1.0, b)));  // θ small
  const double tb = std::acos(std::max(-1.0, std::min(1.0, a)));  // θ large
  c[0] = (tb - ta) / M_PI;
  for (int k = 1; k < kMoments; ++k) {
    c[static_cast<size_t>(k)] =
        2.0 * (std::sin(k * tb) - std::sin(k * ta)) / (k * M_PI);
  }
  return c;
}

}  // namespace

std::vector<double> KpmSpectralDensity(const sparse::CsrMatrix& norm,
                                       const KpmConfig& config) {
  const int64_t n = norm.n();
  SGNN_CHECK(n > 0, "KpmSpectralDensity: empty graph");
  std::vector<double> moments(static_cast<size_t>(kMoments), 0.0);
  Rng rng(config.seed * 0xA0761D6478BD642FULL + 41);
  std::vector<float> v(static_cast<size_t>(n)), prev(static_cast<size_t>(n)),
      cur(static_cast<size_t>(n)), next;
  for (int probe = 0; probe < kProbes; ++probe) {
    // Rademacher probe.
    for (auto& e : v) e = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
    // μ_k += <v, T_k(B) v> / n.
    cur = v;                       // T_0 v
    std::fill(prev.begin(), prev.end(), 0.0f);
    for (int k = 0; k < kMoments; ++k) {
      double dot = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        dot += double(v[static_cast<size_t>(i)]) * cur[static_cast<size_t>(i)];
      }
      moments[static_cast<size_t>(k)] += dot / static_cast<double>(n);
      // Advance recurrence: T_{k+1} = 2 B T_k - T_{k-1} (T_1 = B T_0).
      ApplyShifted(norm, cur, &next);
      if (k > 0) {
        for (int64_t i = 0; i < n; ++i) {
          next[static_cast<size_t>(i)] =
              2.0f * next[static_cast<size_t>(i)] -
              prev[static_cast<size_t>(i)];
        }
      }
      prev = cur;
      cur = next;
    }
  }
  for (auto& m : moments) m /= kProbes;

  // Evaluate the damped series at bin centers over y ∈ (-1, 1), then map to
  // λ = y + 1 ∈ (0, 2) and normalize to unit mass.
  std::vector<double> density(static_cast<size_t>(config.bins), 0.0);
  double total = 0.0;
  for (int b = 0; b < config.bins; ++b) {
    const double y = -1.0 + (b + 0.5) * 2.0 / config.bins;
    double f = Jackson(0) * moments[0];
    double tkm1 = 1.0, tk = y;
    for (int k = 1; k < kMoments; ++k) {
      f += 2.0 * Jackson(k) * moments[static_cast<size_t>(k)] * tk;
      const double tnext = 2.0 * y * tk - tkm1;
      tkm1 = tk;
      tk = tnext;
    }
    f /= (M_PI * std::sqrt(std::max(1e-9, 1.0 - y * y)));
    density[static_cast<size_t>(b)] = std::max(0.0, f);
    total += density[static_cast<size_t>(b)];
  }
  if (total > 0) {
    for (auto& d : density) d /= total;
  }
  return density;
}

std::vector<double> SignalBandEnergy(const sparse::CsrMatrix& norm,
                                     const Matrix& x, int num_bands) {
  SGNN_CHECK(x.rows() == norm.n(), "SignalBandEnergy: shape mismatch");
  SGNN_CHECK(num_bands >= 1, "SignalBandEnergy: need at least one band");
  const int64_t n = x.rows();
  std::vector<double> energy(static_cast<size_t>(num_bands), 0.0);
  std::vector<float> v(static_cast<size_t>(n)), prev(static_cast<size_t>(n)),
      cur(static_cast<size_t>(n)), next;
  // Precompute per-band indicator coefficients (bands over λ map to
  // y = λ - 1 bands).
  std::vector<std::vector<double>> coeffs;
  for (int b = 0; b < num_bands; ++b) {
    const double lo = -1.0 + b * 2.0 / num_bands;
    const double hi = -1.0 + (b + 1) * 2.0 / num_bands;
    coeffs.push_back(IndicatorCoefficients(lo, hi));
  }
  for (int64_t f = 0; f < x.cols(); ++f) {
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = x.at(i, f);
    }
    double norm2 = 0.0;
    for (const float e : v) norm2 += double(e) * e;
    if (norm2 <= 0) continue;
    // Walk the Chebyshev recurrence once, accumulating every band's
    // quadratic form <v, P_b v> on the fly.
    std::vector<double> acc(static_cast<size_t>(num_bands), 0.0);
    cur = v;
    std::fill(prev.begin(), prev.end(), 0.0f);
    for (int k = 0; k < kMoments; ++k) {
      double dot = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        dot += double(v[static_cast<size_t>(i)]) * cur[static_cast<size_t>(i)];
      }
      const double damped = Jackson(k) * dot;
      for (int b = 0; b < num_bands; ++b) {
        acc[static_cast<size_t>(b)] +=
            coeffs[static_cast<size_t>(b)][static_cast<size_t>(k)] * damped;
      }
      ApplyShifted(norm, cur, &next);
      if (k > 0) {
        for (int64_t i = 0; i < n; ++i) {
          next[static_cast<size_t>(i)] =
              2.0f * next[static_cast<size_t>(i)] -
              prev[static_cast<size_t>(i)];
        }
      }
      prev = cur;
      cur = next;
    }
    for (int b = 0; b < num_bands; ++b) {
      energy[static_cast<size_t>(b)] +=
          std::max(0.0, acc[static_cast<size_t>(b)]) / norm2;
    }
  }
  // Normalize across bands (projector truncation leaves small leakage).
  double total = 0.0;
  for (const double e : energy) total += e;
  if (total > 0) {
    for (auto& e : energy) e /= total;
  }
  return energy;
}

std::vector<double> LabelBandEnergy(const sparse::CsrMatrix& norm,
                                    const std::vector<int32_t>& labels,
                                    int32_t num_classes, int num_bands) {
  SGNN_CHECK(static_cast<int64_t>(labels.size()) == norm.n(),
             "LabelBandEnergy: label count mismatch");
  Matrix onehot(norm.n(), num_classes, Device::kHost);
  for (int64_t i = 0; i < norm.n(); ++i) {
    onehot.at(i, labels[static_cast<size_t>(i)]) = 1.0f;
  }
  // Center each class column: the all-ones direction is (close to) the
  // trivial λ ≈ 0 eigenvector and would swamp the low band for any labels.
  Matrix mean(1, num_classes, Device::kHost);
  ops::ColumnSum(onehot, &mean);
  ops::Scale(static_cast<float>(-1.0 / static_cast<double>(norm.n())), &mean);
  ops::AddRowBroadcast(mean, &onehot);
  return SignalBandEnergy(norm, onehot, num_bands);
}

double MeanSignalFrequency(const sparse::CsrMatrix& norm, const Matrix& x) {
  SGNN_CHECK(x.rows() == norm.n(), "MeanSignalFrequency: shape mismatch");
  // <x, L̃ x> = <x, x> - <x, Ã x>.
  Matrix ax(x.rows(), x.cols(), Device::kHost);
  norm.SpMM(x, &ax);
  const double xx = ops::Dot(x, x);
  if (xx <= 0) return 0.0;
  return 1.0 - ops::Dot(x, ax) / xx;
}

double MeanLabelFrequency(const sparse::CsrMatrix& norm,
                          const std::vector<int32_t>& labels,
                          int32_t num_classes) {
  Matrix onehot(norm.n(), num_classes, Device::kHost);
  for (int64_t i = 0; i < norm.n(); ++i) {
    onehot.at(i, labels[static_cast<size_t>(i)]) = 1.0f;
  }
  Matrix mean(1, num_classes, Device::kHost);
  ops::ColumnSum(onehot, &mean);
  ops::Scale(static_cast<float>(-1.0 / static_cast<double>(norm.n())), &mean);
  ops::AddRowBroadcast(mean, &onehot);
  return MeanSignalFrequency(norm, onehot);
}

const char* RecommendFilterFamily(double mean_label_frequency) {
  // Thresholds calibrated on the dataset suite: homophilous counterparts
  // sit near 0.2-0.3, strongly heterophilous ones above 0.75.
  if (mean_label_frequency < 0.45) return "low-pass fixed (PPR/HK/Monomial)";
  if (mean_label_frequency > 0.75) {
    return "high-frequency capable (Horner/Chebyshev/variable)";
  }
  return "adaptive / filter bank (variable or bank filters)";
}

}  // namespace sgnn::eval

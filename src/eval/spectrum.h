// Graph-spectrum analysis without eigendecomposition.
//
// The paper's practical guideline (C5/RQ6) is to choose filters by
// examining the graph spectrum and where the label signal lives in it.
// This module makes that actionable at scale:
//   * KPM spectral density: the eigenvalue distribution of L̃ estimated by
//     the kernel polynomial method (48 Chebyshev moments of 8 random probes
//     with Jackson damping) — O(moments · m) time, no eigenvectors.
//   * Signal band energy: how much of a node signal's energy falls into
//     low / mid / high frequency bands, computed with Chebyshev band-pass
//     projectors — the quantity that predicts which filter family fits.

#ifndef SGNN_EVAL_SPECTRUM_H_
#define SGNN_EVAL_SPECTRUM_H_

#include <cstdint>
#include <vector>

#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace sgnn::eval {

/// Configuration for the kernel polynomial method.
struct KpmConfig {
  int bins = 32;        ///< histogram bins over λ ∈ [0, 2]
  uint64_t seed = 1;
};

/// Estimated eigenvalue density of L̃ = I - Ã over [0, 2]; `density[i]` is
/// the mass in bin i (sums to ~1).
std::vector<double> KpmSpectralDensity(const sparse::CsrMatrix& norm,
                                       const KpmConfig& config);

/// Fraction of signal energy per spectral band. Bands partition [0, 2] into
/// `num_bands` equal intervals; entry b is ||P_b x||² / ||x||² where P_b is
/// a Jackson-damped 48-moment Chebyshev band projector. Columns of x are
/// averaged.
std::vector<double> SignalBandEnergy(const sparse::CsrMatrix& norm,
                                     const Matrix& x, int num_bands = 4);

/// Band energy of the one-hot class-indicator signal (labels spread over
/// columns); the paper's heterophily story in spectral form: homophilous
/// labels concentrate in low bands, heterophilous in high ones.
std::vector<double> LabelBandEnergy(const sparse::CsrMatrix& norm,
                                    const std::vector<int32_t>& labels,
                                    int32_t num_classes, int num_bands = 4);

/// Exact mean frequency of a signal: the Rayleigh quotient
/// Σ_f x_fᵀ L̃ x_f / Σ_f x_fᵀ x_f ∈ [0, 2] — one SpMM, no approximation.
double MeanSignalFrequency(const sparse::CsrMatrix& norm, const Matrix& x);

/// Mean frequency of the centered class-indicator signal. Low values mean
/// the labels align with low graph frequencies (homophily); high values the
/// opposite.
double MeanLabelFrequency(const sparse::CsrMatrix& norm,
                          const std::vector<int32_t>& labels,
                          int32_t num_classes);

/// Filter-family recommendation from the mean label frequency, mirroring
/// the paper's guideline text (C5). Returns "low-pass fixed",
/// "high-frequency capable", or "adaptive / filter bank".
const char* RecommendFilterFamily(double mean_label_frequency);

}  // namespace sgnn::eval

#endif  // SGNN_EVAL_SPECTRUM_H_

// Quantized-compute kernels for the serving fast path.
//
// These are the int8/fp16 counterparts of the two fp32 kernels a decoupled
// MB query runs — CombineTerms over the gathered bundle and the φ1
// ForwardInference GEMMs — built under the same determinism contract as
// tensor/ops.cc: every kernel is row-partitioned with ParallelFor, each
// output row depends only on its own inputs, and per-element accumulation
// order is fixed, so results are bit-identical at any SGNN_NUM_THREADS
// (asserted in tests/quant_test.cc).
//
// Int8 GEMM follows the standard dynamic-activation scheme: weights are
// per-output-channel symmetric int8 (offline, calibrated), activations are
// quantized per row on the fly (absmax of the live row), products
// accumulate in int32, and the output rescales once per element by
// row_scale * col_scale before the fp32 bias add. Accumulating a k-long
// dot of products bounded by 127*127 stays far inside int32 for any
// realistic feature width (k < 2^16 guaranteed by checkpoint sanity caps).

#ifndef SGNN_QUANT_KERNELS_H_
#define SGNN_QUANT_KERNELS_H_

#include <cstdint>
#include <vector>

#include "core/filter.h"
#include "nn/mlp.h"
#include "quant/quantize.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::quant {

/// out = x · Wq (+ nothing): int8 weights with owned per-column scales,
/// per-row dynamic activation quantization, int32 accumulators. `out` must
/// be pre-shaped (x.rows, wq.cols).
void GemmInt8(const Matrix& x, const QuantizedMatrix& wq, Matrix* out);

/// out = x · Wh for fp16 weights (dequantize-on-read, fp32 accumulate).
void GemmF16(const Matrix& x, const QuantizedMatrix& wq, Matrix* out);

/// One quantized linear layer: y = GemmInt8/F16(x, w) + b. Biases stay
/// fp32 — they are O(out_dim) bytes and their error otherwise lands
/// directly on the logits.
struct QuantizedLinear {
  QuantizedMatrix w;  ///< (in_dim x out_dim), owned scales when int8
  Matrix b;           ///< (1 x out_dim) fp32

  void Forward(const Matrix& x, Matrix* out) const;
};

/// Quantized mirror of nn::Mlp::ForwardInference: ReLU between layers, no
/// dropout, const. Lives here (not in nn) so the nn layer stays ignorant
/// of precision — the serve engine picks fp or quantized φ1 per model.
class QuantizedMlp {
 public:
  QuantizedMlp() = default;

  /// Quantizes every layer of `mlp` at `precision`, on the device of its
  /// weights; biases are copied at fp32. Weights always use absmax
  /// calibration — their exact range is known, clipping only helps
  /// long-tailed activation-like data. A quantized serve::RestoreModel
  /// builds its φ1 this way. InvalidArgument for kFp32.
  static Result<QuantizedMlp> FromMlp(const nn::Mlp& mlp, Precision precision);

  bool empty() const { return layers_.empty(); }
  const std::vector<QuantizedLinear>& layers() const { return layers_; }
  Precision precision() const {
    return layers_.empty() ? Precision::kFp32 : layers_[0].w.precision();
  }

  /// out must be pre-shaped (x.rows, last out_dim). Identity when empty,
  /// mirroring nn::Mlp.
  void ForwardInference(const Matrix& x, Matrix* out) const;

 private:
  std::vector<QuantizedLinear> layers_;
};

/// Fused quantized CombineTerms over staged bundles. `staged` holds `b`
/// bundles back to back, each a (num_terms x f) payload in bundle-row-major
/// order (term k of bundle i starts at (i*num_terms + k) * f). `eff` is the
/// (num_terms x f) fp32 effective-weight matrix — probed combine weight
/// times per-term channel scale (int8) or the combine weight alone (fp16) —
/// so h[i][c] = sum_k eff[k][c] * staged_value. `h` must be pre-shaped
/// (b x f). Bundle-parallel; bit-identical at any thread count.
void CombineStagedInt8(const int8_t* staged, int64_t b, const Matrix& eff,
                       Matrix* h);
void CombineStagedF16(const uint16_t* staged, int64_t b, const Matrix& eff,
                      Matrix* h);

/// Extracts the per-(term, channel) combine weights of an MB filter by
/// probing CombineTerms with unit bundles: for every Table 1 MB filter the
/// combine step is linear and channel-diagonal (y[., c] depends only on
/// term channel c), so feeding e_k (all-ones in term k, zeros elsewhere)
/// reads out weight row k exactly. A seeded random probe then validates the
/// diagonal model against the filter's own CombineTerms; on mismatch
/// `*diagonal` is false and cw is left valid-but-unusable — callers must
/// not serve from it (a quantized serve::RestoreModel fails with
/// FailedPrecondition, so a future non-diagonal filter is refused instead of
/// serving garbage).
/// `num_terms`/`f` describe the term bundles; the filter must already be
/// precomputed. cw is (num_terms x f) on the host.
[[nodiscard]] Status ProbeCombineWeights(filters::SpectralFilter* filter,
                                         int64_t num_terms, int64_t f,
                                         Matrix* cw, bool* diagonal);

}  // namespace sgnn::quant

#endif  // SGNN_QUANT_KERNELS_H_

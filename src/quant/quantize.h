// Post-training quantization codecs for the frozen MB serving artifact.
//
// The paper's decoupled (MB) filters freeze two things at export time: the
// φ1 MLP weights and the precomputed per-hop term matrices. Both are pure
// read-only tensors at serving time, which makes them ideal post-training
// quantization targets (no fake-quant retraining, no gradient plumbing):
//
//   * int8  — per-channel symmetric: one fp32 scale per column, values
//     stored as round-to-nearest int8 in [-127, 127] (the -128 slot is
//     unused so negation is closed and the codec is symmetric). Column
//     granularity matches how both consumers index: GEMM columns are output
//     channels, term columns are feature channels.
//   * fp16  — IEEE 754 binary16 bit patterns (round-to-nearest-even), no
//     scales. Halves the footprint at ~1e-3 relative error.
//
// Calibration picks the int8 clipping range per channel from a held-out
// sample of rows (the "query sample"): absmax uses the exact per-channel
// max |v| (no clipping, coarsest step), percentile clips to the 99.5th
// percentile of |v| so a single outlier row cannot blow up the step size
// for every other value in the channel. All sampling is seeded (tensor
// Rng), so calibration is deterministic — quantizing the same checkpoint
// twice yields bit-identical payloads (asserted in tests/quant_test.cc).
//
// QuantizedMatrix holds a DeviceBytes: payload bytes register with the
// global DeviceTracker, so cache budgets and bench memory reports see
// quantized bundles at their true (reduced) size.

#ifndef SGNN_QUANT_QUANTIZE_H_
#define SGNN_QUANT_QUANTIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/device.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::quant {

/// Storage precision of a quantized tensor. kFp32 is the identity tag used
/// by callers that sweep precisions; Quantize() rejects it (nothing to do).
enum class Precision : uint8_t {
  kFp32 = 0,
  kFp16 = 1,
  kInt8 = 2,
};

/// How the int8 clipping range is chosen per channel. Ignored for fp16.
enum class CalibPolicy : uint8_t {
  kAbsMax = 0,      ///< scale = max|v| / 127 over the calibration sample
  kPercentile = 1,  ///< scale = 99.5th percentile of |v| / 127 (clips outliers)
};

/// Calibration knobs (documented in docs/QUANTIZATION.md).
struct CalibConfig {
  CalibPolicy policy = CalibPolicy::kAbsMax;
  /// Rows sampled (without replacement, seeded) for calibration statistics.
  /// 0 or >= rows means every row participates.
  int64_t sample_rows = 0;
  /// Seed for the row sample; fixed seed => bit-identical calibration.
  uint64_t seed = 0x51u;
};

const char* PrecisionName(Precision p);

/// Bytes per stored element (1 for int8, 2 for fp16, 4 for fp32).
size_t ElemSize(Precision p);

/// IEEE binary16 conversions. F32ToF16 rounds to nearest-even, overflows to
/// +-inf and preserves NaN; F16ToF32 is exact (every half is a float).
uint16_t F32ToF16(float f);
float F16ToF32(uint16_t h);

/// Dense row-major matrix of quantized values with DeviceTracker-visible
/// byte accounting. For kInt8 the payload is int8 and `scales()` holds one
/// fp32 multiplier per column — unless the scales were deliberately kept
/// external (per-node cache bundles share the per-term scales owned by the
/// model, so each bundle stores payload bytes only). For kFp16 the payload
/// is uint16 bit patterns and scales are always empty.
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  /// Zero-filled rows x cols payload at `precision` on `device`.
  QuantizedMatrix(Precision precision, int64_t rows, int64_t cols,
                  Device device = Device::kHost);

  QuantizedMatrix(const QuantizedMatrix& other) = default;
  QuantizedMatrix& operator=(const QuantizedMatrix& other) = default;
  /// Moves leave `other` a 0x0 matrix on its device.
  QuantizedMatrix(QuantizedMatrix&& other) noexcept;
  QuantizedMatrix& operator=(QuantizedMatrix&& other) noexcept;
  ~QuantizedMatrix() = default;

  Precision precision() const { return precision_; }
  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  Device device() const { return tracked_.device(); }

  /// Footprint: payload bytes plus owned scale bytes. The DeviceTracker
  /// sees the payload only (see tracked_).
  size_t bytes() const { return data_.size() + scales_.size() * sizeof(float); }

  /// Payload accessors. i8* is valid only at kInt8, f16* only at kFp16.
  int8_t* i8() { return reinterpret_cast<int8_t*>(data_.data()); }
  const int8_t* i8() const {
    return reinterpret_cast<const int8_t*>(data_.data());
  }
  uint16_t* f16() { return reinterpret_cast<uint16_t*>(data_.data()); }
  const uint16_t* f16() const {
    return reinterpret_cast<const uint16_t*>(data_.data());
  }
  const int8_t* i8row(int64_t r) const { return i8() + r * cols_; }
  const uint16_t* f16row(int64_t r) const { return f16() + r * cols_; }

  /// Per-column scales (size cols for owned-scale int8; empty for fp16 and
  /// for external-scale int8 payloads such as cache bundles).
  std::vector<float>& scales() { return scales_; }
  const std::vector<float>& scales() const { return scales_; }

  /// Re-tags onto another device (simulated transfer, tracker-visible).
  void MoveToDevice(Device device);

 private:
  Precision precision_ = Precision::kFp32;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<uint8_t> data_;   ///< rows*cols elements of ElemSize bytes
  std::vector<float> scales_;
  // Only the payload is tracked. Quantize attaches the scales after
  // construction, so counting them would change the tracked bytes of every
  // int8 model; the payload dominates anyway.
  DeviceBytes tracked_;  ///< data_ bytes on device(); last, see DeviceBytes
};

/// Per-channel int8 scales for `m` under `calib`: scales[c] = clip_c / 127
/// where clip_c is the absmax or percentile statistic of |m[:, c]| over the
/// (seeded) row sample. A percentile statistic of exactly 0 falls back to
/// the channel absmax so nonzero values never collapse to a zero scale.
std::vector<float> CalibrateScales(const Matrix& m, const CalibConfig& calib);

/// Quantizes `m` at `precision` (kInt8 uses `calib`; kFp16 ignores it).
/// The result lives on m.device() and owns its scales. InvalidArgument for
/// kFp32 (nothing to quantize).
Result<QuantizedMatrix> Quantize(const Matrix& m, Precision precision,
                                 const CalibConfig& calib);

/// Expands `q` back to fp32. `out` must be pre-shaped (q.rows, q.cols); the
/// int8 path requires owned scales. Row-parallel and bit-identical at any
/// thread count (each output element depends on exactly one input element).
void Dequantize(const QuantizedMatrix& q, Matrix* out);

}  // namespace sgnn::quant

#endif  // SGNN_QUANT_QUANTIZE_H_

#include "quant/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace sgnn::quant {

namespace {

/// Elements per chunk for O(1)-per-element passes (same target as
/// ops.cc's kElementGrain).
constexpr int64_t kElementGrain = int64_t{1} << 15;

/// The |v| percentile CalibPolicy::kPercentile clips each channel to.
constexpr double kClipPercentile = 99.5;

int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, cols));
}

int8_t QuantizeValue(float v, float scale) {
  if (scale == 0.0f) return 0;
  const float q = std::nearbyint(v / scale);
  return static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kFp16: return "fp16";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

size_t ElemSize(Precision p) {
  switch (p) {
    case Precision::kFp32: return 4;
    case Precision::kFp16: return 2;
    case Precision::kInt8: return 1;
  }
  return 4;
}

uint16_t F32ToF16(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint32_t sign = (x >> 16) & 0x8000u;
  const uint32_t exp32 = (x >> 23) & 0xFFu;
  uint32_t mant = x & 0x7FFFFFu;
  if (exp32 == 0xFFu) {  // inf / NaN (keep NaN-ness with a quiet payload)
    return static_cast<uint16_t>(sign | 0x7C00u | (mant ? 0x200u : 0u));
  }
  const int32_t exp = static_cast<int32_t>(exp32) - 127 + 15;
  if (exp >= 31) return static_cast<uint16_t>(sign | 0x7C00u);  // overflow
  if (exp <= 0) {
    if (exp < -10) return static_cast<uint16_t>(sign);  // underflows to 0
    // Subnormal half: shift the (implicit-1) mantissa into place with
    // round-to-nearest-even on the dropped bits.
    mant |= 0x800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - exp);
    uint32_t half = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1u);
    if (rem > halfway || (rem == halfway && (half & 1u))) ++half;
    return static_cast<uint16_t>(sign | half);
  }
  uint32_t half = (static_cast<uint32_t>(exp) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1FFFu;
  // Round to nearest even; a mantissa carry correctly rolls into the
  // exponent (and on to infinity at the top).
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<uint16_t>(sign | half);
}

float F16ToF32(uint16_t h) {
  const uint32_t sign = (static_cast<uint32_t>(h) & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1Fu;
  const uint32_t mant = h & 0x3FFu;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;
    } else {
      // Subnormal half: normalize into a float exponent.
      uint32_t m = mant;
      uint32_t e = 0;
      while (!(m & 0x400u)) {
        m <<= 1;
        ++e;
      }
      bits = sign | ((113u - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7F800000u | (mant << 13);
  } else {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

QuantizedMatrix::QuantizedMatrix(Precision precision, int64_t rows,
                                 int64_t cols, Device device)
    : precision_(precision), rows_(rows), cols_(cols) {
  SGNN_CHECK(rows >= 0 && cols >= 0, "QuantizedMatrix: negative shape");
  SGNN_CHECK(precision != Precision::kFp32,
             "QuantizedMatrix: fp32 payloads are plain Matrix");
  data_.assign(static_cast<size_t>(rows * cols) * ElemSize(precision), 0);
  tracked_ = DeviceBytes(device, data_.size());
}

QuantizedMatrix::QuantizedMatrix(QuantizedMatrix&& other) noexcept
    : precision_(other.precision_),
      rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      data_(std::move(other.data_)),
      scales_(std::move(other.scales_)),
      tracked_(std::move(other.tracked_)) {}

QuantizedMatrix& QuantizedMatrix::operator=(QuantizedMatrix&& other) noexcept {
  if (this == &other) return *this;
  precision_ = other.precision_;
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  data_ = std::move(other.data_);
  scales_ = std::move(other.scales_);
  tracked_ = std::move(other.tracked_);
  return *this;
}

void QuantizedMatrix::MoveToDevice(Device device) { tracked_.MoveTo(device); }

std::vector<float> CalibrateScales(const Matrix& m, const CalibConfig& calib) {
  const int64_t rows = m.rows(), cols = m.cols();
  std::vector<float> scales(static_cast<size_t>(cols), 0.0f);
  if (rows == 0 || cols == 0) return scales;

  // Seeded row sample without replacement (partial Fisher-Yates). The same
  // (seed, sample_rows, shape) always yields the same rows, which is what
  // makes calibration bit-deterministic.
  std::vector<int64_t> sample;
  const bool all = calib.sample_rows <= 0 || calib.sample_rows >= rows;
  if (all) {
    sample.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) sample[static_cast<size_t>(r)] = r;
  } else {
    std::vector<int64_t> pool(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) pool[static_cast<size_t>(r)] = r;
    Rng rng(calib.seed);
    sample.reserve(static_cast<size_t>(calib.sample_rows));
    for (int64_t i = 0; i < calib.sample_rows; ++i) {
      const uint64_t j =
          i + rng.UniformInt(static_cast<uint64_t>(rows - i));
      std::swap(pool[static_cast<size_t>(i)], pool[j]);
      sample.push_back(pool[static_cast<size_t>(i)]);
    }
  }

  const bool percentile = calib.policy == CalibPolicy::kPercentile;
  // Column-parallel: each chunk owns a column range, so scale writes never
  // race and the result is identical at any thread count.
  parallel::ParallelFor(0, cols, RowGrain(static_cast<int64_t>(sample.size())),
                        [&](int64_t lo, int64_t hi) {
    std::vector<float> mags;
    for (int64_t c = lo; c < hi; ++c) {
      float absmax = 0.0f;
      mags.clear();
      mags.reserve(sample.size());
      for (const int64_t r : sample) {
        const float mag = std::fabs(m.at(r, c));
        absmax = std::max(absmax, mag);
        if (percentile) mags.push_back(mag);
      }
      float clip = absmax;
      if (percentile && !mags.empty()) {
        const auto idx = static_cast<size_t>(
            std::llround((kClipPercentile / 100.0) *
                         static_cast<double>(mags.size() - 1)));
        std::nth_element(mags.begin(), mags.begin() + idx, mags.end());
        clip = mags[idx];
        // An all-but-outlier-zero channel would get a zero step and erase
        // every value; fall back to the exact range instead.
        if (clip == 0.0f) clip = absmax;
      }
      scales[static_cast<size_t>(c)] = clip / 127.0f;
    }
  });
  return scales;
}

Result<QuantizedMatrix> Quantize(const Matrix& m, Precision precision,
                                 const CalibConfig& calib) {
  if (precision == Precision::kFp32) {
    return Status::InvalidArgument("Quantize: fp32 is not a quantized target");
  }
  QuantizedMatrix q(precision, m.rows(), m.cols(), m.device());
  const int64_t rows = m.rows(), cols = m.cols();
  if (precision == Precision::kFp16) {
    uint16_t* out = q.f16();
    parallel::ParallelFor(0, rows, RowGrain(cols), [&](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        const float* src = m.row(r);
        uint16_t* dst = out + r * cols;
        for (int64_t c = 0; c < cols; ++c) dst[c] = F32ToF16(src[c]);
      }
    });
    return q;
  }
  q.scales() = CalibrateScales(m, calib);
  const float* scales = q.scales().data();
  int8_t* out = q.i8();
  parallel::ParallelFor(0, rows, RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* src = m.row(r);
      int8_t* dst = out + r * cols;
      for (int64_t c = 0; c < cols; ++c) {
        dst[c] = QuantizeValue(src[c], scales[c]);
      }
    }
  });
  return q;
}

void Dequantize(const QuantizedMatrix& q, Matrix* out) {
  SGNN_CHECK(out->rows() == q.rows() && out->cols() == q.cols(),
             "Dequantize: output shape mismatch");
  const int64_t rows = q.rows(), cols = q.cols();
  if (q.precision() == Precision::kFp16) {
    parallel::ParallelFor(0, rows, RowGrain(cols), [&](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        const uint16_t* src = q.f16row(r);
        float* dst = out->row(r);
        for (int64_t c = 0; c < cols; ++c) dst[c] = F16ToF32(src[c]);
      }
    });
    return;
  }
  SGNN_CHECK(q.precision() == Precision::kInt8, "Dequantize: fp32 payload");
  SGNN_CHECK(static_cast<int64_t>(q.scales().size()) == cols,
             "Dequantize: int8 payload without owned scales");
  const float* scales = q.scales().data();
  parallel::ParallelFor(0, rows, RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int8_t* src = q.i8row(r);
      float* dst = out->row(r);
      for (int64_t c = 0; c < cols; ++c) {
        dst[c] = scales[c] * static_cast<float>(src[c]);
      }
    }
  });
}

}  // namespace sgnn::quant

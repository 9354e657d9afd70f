#include "quant/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/parallel.h"

namespace sgnn::quant {

namespace {

/// Same ~64k-flops-per-chunk target as tensor/ops.cc.
int64_t RowGrain(int64_t row_flops) {
  return parallel::GrainForFlops(row_flops, int64_t{1} << 16);
}

}  // namespace

void GemmInt8(const Matrix& x, const QuantizedMatrix& wq, Matrix* out) {
  SGNN_CHECK(wq.precision() == Precision::kInt8, "GemmInt8: not int8");
  SGNN_CHECK(x.cols() == wq.rows(), "GemmInt8: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == x.rows() && out->cols() == wq.cols(),
             "GemmInt8: output shape mismatch");
  SGNN_CHECK(static_cast<int64_t>(wq.scales().size()) == wq.cols(),
             "GemmInt8: weights need owned per-column scales");
  const int64_t n = x.rows(), k = x.cols(), m = wq.cols();
  const float* wscale = wq.scales().data();
  const int8_t* w = wq.i8();
  // Row-partitioned over `out`. Activation quantization is per *row*, so a
  // row's result is independent of which batch (or chunk) it arrived in —
  // this is what makes batched and singleton serving bit-identical.
  parallel::ParallelFor(0, n, RowGrain(k * m), [&](int64_t lo, int64_t hi) {
    std::vector<int8_t> qrow(static_cast<size_t>(k));
    std::vector<int32_t> acc(static_cast<size_t>(m));
    for (int64_t i = lo; i < hi; ++i) {
      const float* xrow = x.row(i);
      float absmax = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        absmax = std::max(absmax, std::fabs(xrow[kk]));
      }
      const float ascale = absmax / 127.0f;
      const float inv = ascale > 0.0f ? 1.0f / ascale : 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float q = std::nearbyint(xrow[kk] * inv);
        qrow[static_cast<size_t>(kk)] =
            static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
      }
      std::fill(acc.begin(), acc.end(), 0);
      // i-k-j order: streams through w and acc contiguously; integer
      // accumulation is associative, so order only matters for speed.
      for (int64_t kk = 0; kk < k; ++kk) {
        const int32_t av = qrow[static_cast<size_t>(kk)];
        if (av == 0) continue;
        const int8_t* wrow = w + kk * m;
        for (int64_t j = 0; j < m; ++j) {
          acc[static_cast<size_t>(j)] += av * static_cast<int32_t>(wrow[j]);
        }
      }
      float* orow = out->row(i);
      for (int64_t j = 0; j < m; ++j) {
        orow[j] = static_cast<float>(acc[static_cast<size_t>(j)]) * ascale *
                  wscale[j];
      }
    }
  });
}

void GemmF16(const Matrix& x, const QuantizedMatrix& wq, Matrix* out) {
  SGNN_CHECK(wq.precision() == Precision::kFp16, "GemmF16: not fp16");
  SGNN_CHECK(x.cols() == wq.rows(), "GemmF16: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == x.rows() && out->cols() == wq.cols(),
             "GemmF16: output shape mismatch");
  const int64_t n = x.rows(), k = x.cols(), m = wq.cols();
  const uint16_t* w = wq.f16();
  out->Fill(0.0f);
  // Same i-k-j ascending-k accumulation as ops::Gemm, so the parallel
  // result is bit-identical to the serial one.
  parallel::ParallelFor(0, n, RowGrain(k * m), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* xrow = x.row(i);
      float* orow = out->row(i);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = xrow[kk];
        if (av == 0.0f) continue;
        const uint16_t* wrow = w + kk * m;
        for (int64_t j = 0; j < m; ++j) orow[j] += av * F16ToF32(wrow[j]);
      }
    }
  });
}

void QuantizedLinear::Forward(const Matrix& x, Matrix* out) const {
  if (w.precision() == Precision::kInt8) {
    GemmInt8(x, w, out);
  } else {
    GemmF16(x, w, out);
  }
  ops::AddRowBroadcast(b, out);
}

Result<QuantizedMlp> QuantizedMlp::FromMlp(const nn::Mlp& mlp,
                                           Precision precision) {
  if (precision == Precision::kFp32) {
    return Status::InvalidArgument("QuantizedMlp: fp32 is not quantized");
  }
  QuantizedMlp q;
  CalibConfig absmax;  // defaults: absmax over every row
  for (const nn::Linear& layer : mlp.layers()) {
    SGNN_ASSIGN_OR_RETURN(QuantizedMatrix w,
                          Quantize(layer.weight().value(), precision, absmax));
    q.layers_.push_back(QuantizedLinear{std::move(w), layer.bias().value()});
  }
  return q;
}

void QuantizedMlp::ForwardInference(const Matrix& x, Matrix* out) const {
  if (layers_.empty()) {
    SGNN_CHECK(out->rows() == x.rows() && out->cols() == x.cols(),
               "QuantizedMlp: identity output shape mismatch");
    ops::Copy(x, out);
    return;
  }
  Matrix cur;
  const Matrix* in = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    Matrix* dst = last ? out : &cur;
    Matrix y(in->rows(), layers_[i].w.cols(), x.device());
    layers_[i].Forward(*in, &y);
    if (!last) ops::ReluInPlace(&y);
    *dst = std::move(y);
    in = dst;
  }
}

void CombineStagedInt8(const int8_t* staged, int64_t b, const Matrix& eff,
                       Matrix* h) {
  const int64_t t = eff.rows(), f = eff.cols();
  SGNN_CHECK(h->rows() == b && h->cols() == f,
             "CombineStagedInt8: output shape mismatch");
  // Bundle-partitioned: h row i reads only bundle i, ascending k per
  // element — bit-identical at any thread count and any batch grouping.
  parallel::ParallelFor(0, b, RowGrain(t * f), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const int8_t* bundle = staged + i * t * f;
      float* hrow = h->row(i);
      std::fill(hrow, hrow + f, 0.0f);
      for (int64_t k = 0; k < t; ++k) {
        const float* erow = eff.row(k);
        const int8_t* trow = bundle + k * f;
        for (int64_t c = 0; c < f; ++c) {
          hrow[c] += erow[c] * static_cast<float>(trow[c]);
        }
      }
    }
  });
}

void CombineStagedF16(const uint16_t* staged, int64_t b, const Matrix& eff,
                      Matrix* h) {
  const int64_t t = eff.rows(), f = eff.cols();
  SGNN_CHECK(h->rows() == b && h->cols() == f,
             "CombineStagedF16: output shape mismatch");
  parallel::ParallelFor(0, b, RowGrain(t * f), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const uint16_t* bundle = staged + i * t * f;
      float* hrow = h->row(i);
      std::fill(hrow, hrow + f, 0.0f);
      for (int64_t k = 0; k < t; ++k) {
        const float* erow = eff.row(k);
        const uint16_t* trow = bundle + k * f;
        for (int64_t c = 0; c < f; ++c) {
          hrow[c] += erow[c] * F16ToF32(trow[c]);
        }
      }
    }
  });
}

Status ProbeCombineWeights(filters::SpectralFilter* filter, int64_t num_terms,
                           int64_t f, Matrix* cw, bool* diagonal) {
  *diagonal = true;
  *cw = Matrix(num_terms, f, Device::kHost);
  std::vector<Matrix> probes;
  probes.reserve(static_cast<size_t>(num_terms));
  std::vector<const Matrix*> ptrs;
  ptrs.reserve(static_cast<size_t>(num_terms));
  for (int64_t k = 0; k < num_terms; ++k) {
    probes.emplace_back(1, f, Device::kAccel);
    ptrs.push_back(&probes.back());
  }
  Matrix y(1, f, Device::kAccel);

  // A linear combine maps the zero bundle to zero; anything else (an
  // affine offset, stateful combine) already breaks the model.
  filter->CombineTerms(ptrs, &y, /*cache=*/false);
  for (int64_t c = 0; c < f; ++c) {
    if (y.at(0, c) != 0.0f) {
      *diagonal = false;
      return Status::OK();
    }
  }

  // Unit probes: all-ones in term k reads out weight row k under the
  // linear channel-diagonal model.
  for (int64_t k = 0; k < num_terms; ++k) {
    probes[static_cast<size_t>(k)].Fill(1.0f);
    filter->CombineTerms(ptrs, &y, /*cache=*/false);
    std::memcpy(cw->row(k), y.row(0), static_cast<size_t>(f) * sizeof(float));
    probes[static_cast<size_t>(k)].Fill(0.0f);
  }

  // Seeded random probe: reject the diagonal model unless it reproduces
  // the filter's own combine to near machine precision.
  Rng rng(0xC0FFEEu);
  for (int64_t k = 0; k < num_terms; ++k) {
    probes[static_cast<size_t>(k)].FillNormal(&rng);
  }
  filter->CombineTerms(ptrs, &y, /*cache=*/false);
  for (int64_t c = 0; c < f; ++c) {
    double expect = 0.0;
    for (int64_t k = 0; k < num_terms; ++k) {
      expect += static_cast<double>(cw->at(k, c)) *
                static_cast<double>(probes[static_cast<size_t>(k)].at(0, c));
    }
    const double got = y.at(0, c);
    const double tol = 1e-4 * std::max(1.0, std::fabs(expect));
    if (std::fabs(got - expect) > tol) {
      *diagonal = false;
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace sgnn::quant

// Versioned, endianness-safe checkpoint for trained decoupled models.
//
// The serving subsystem's trained-artifact format: one file that round-trips
// everything the paper's decoupled mini-batch scheme needs at query time —
// the filter specification (name + hops + hyperparameters, re-validated on
// restore), the learned θ/γ coefficients, the trained φ1 weights, and the
// MB-precomputed per-hop terms. The graph itself is NOT required to serve:
// Precompute ran once at export, and a query is a row gather + CombineTerms
// + φ1 forward (paper Section 2.2). RestoreModel builds the servable model
// from this image at fp32, fp16 or int8; only the fp32 image is ever
// written to disk.
//
// Wire format: the tensor/serialize.h file frame (magic "SGNNCKPT", version
// 1, flags 0) around the payload tabled in docs/SERVING.md. All multi-byte
// values are little-endian. Load rejects, with a typed Status:
//   * wrong magic, flags other than 0, size mismatch, CRC mismatch, counts
//     or shapes the payload cannot hold ..... IOError
//   * unsupported version ................... FailedPrecondition
//   * out-of-range hyperparameters .......... InvalidArgument (the
//     CreateFilter validation — a hand-edited α=0 fails here, not as NaN
//     logits at query time)

#ifndef SGNN_SERVE_CHECKPOINT_H_
#define SGNN_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "models/trainer.h"
#include "nn/mlp.h"
#include "quant/kernels.h"
#include "quant/quantize.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::serve {

/// Current checkpoint format version (header field).
inline constexpr uint32_t kCheckpointVersion = 1;

/// Provenance recorded alongside the model (journal rows and `sgnn_serve
/// info` reporting; not needed to execute queries).
struct CheckpointMeta {
  std::string dataset;     ///< dataset / graph-family name
  int64_t n = 0;           ///< node count the terms were precomputed for
  int32_t num_classes = 0; ///< output dimension of φ1
  double rho = 0.5;        ///< normalization coefficient used at precompute
  uint64_t seed = 1;       ///< training seed
};

/// In-memory image of one checkpoint file. Plain data: Save writes it
/// verbatim (including out-of-range hyperparameters — the *load* path is
/// the validation boundary, so tests can fabricate corrupt files through
/// the same API a hand editor would produce).
struct Checkpoint {
  // Filter specification; restored through filters::CreateFilter so every
  // hyperparameter re-enters the factory validation.
  std::string filter_name;
  int hops = 10;
  filters::FilterHyperParams hp;
  int64_t feature_dim = 0;  ///< AdaGNN channel width; 0 elsewhere
  std::vector<double> theta;  ///< learned θ/γ (flattened, filter order)

  // φ1 constructor spec + per-layer weights (host copies; W then b per
  // layer, in nn::Mlp layer order).
  int phi1_layers = 0;
  int64_t phi1_in = 0;
  int64_t phi1_hidden = 0;
  int64_t phi1_out = 0;
  double dropout = 0.0;
  std::vector<Matrix> phi1_weights;

  /// MB-precomputed per-hop representations (host; Precompute order).
  std::vector<Matrix> terms;

  CheckpointMeta meta;
};

/// Assembles a checkpoint from a trained mini-batch export. The filter
/// spec must be the one the model was trained with (the base filter class
/// does not expose hops/hyperparameters, so the caller passes them).
/// Returns InvalidArgument when `model` carries no φ1 layers or no terms.
[[nodiscard]] Result<Checkpoint> BuildCheckpoint(
    const std::string& filter_name, int hops, filters::FilterHyperParams hp,
    int64_t feature_dim, const models::ExportedModel& model,
    CheckpointMeta meta);

/// Writes `ckpt` to `path` (atomically: temp file + rename).
[[nodiscard]] Status SaveCheckpoint(const Checkpoint& ckpt,
                                    const std::string& path);

/// Reads and fully validates a checkpoint: header, CRC, structural
/// consistency, and the filter hyperparameters (via CreateFilter).
[[nodiscard]] Result<Checkpoint> LoadCheckpoint(const std::string& path);

/// A restored model ready to serve: validated filter with θ restored (and
/// bank term-slicing initialized) plus, at fp32, φ1 with weights on the
/// accelerator and the host-resident term matrices. A quantized restore
/// fills the quantized fields instead: the quantized terms and φ1 and the
/// probed combine weights that the fused int8/fp16 path serves from
/// (docs/QUANTIZATION.md).
struct ServableModel {
  std::unique_ptr<filters::SpectralFilter> filter;
  nn::Mlp phi1;
  std::vector<Matrix> terms;
  CheckpointMeta meta;

  quant::Precision precision = quant::Precision::kFp32;
  std::vector<quant::QuantizedMatrix> qterms;  ///< host; owned scales
  quant::QuantizedMlp qphi1;
  Matrix combine_w;  ///< (num_terms x F) probed combine weights, host
};

/// Materializes a ServableModel from a checkpoint image at `precision`.
/// Every precision runs the same checks first: structure, the full
/// CreateFilter validation, and θ and term counts against the filter.
/// fp32 copies `ckpt.terms`, so the image stays reusable. int8 and fp16
/// round-trip θ through the precision, quantize φ1 (QuantizedMlp::FromMlp)
/// and the terms (per channel under `calib`, the held-out query sample),
/// and probe the combine weights: FailedPrecondition naming the filter
/// when its CombineTerms is not linear and channel-diagonal, since the
/// fused path could not reproduce it.
[[nodiscard]] Result<ServableModel> RestoreModel(
    const Checkpoint& ckpt,
    quant::Precision precision = quant::Precision::kFp32,
    const quant::CalibConfig& calib = {});

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_CHECKPOINT_H_

#include "serve/checkpoint.h"

#include "sparse/csr.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace sgnn::serve {

namespace {

/// Frame magic of the checkpoint (tensor/serialize.h).
constexpr char kMagic[] = "SGNNCKPT";

/// Sanity caps for count fields, so a corrupt length cannot drive a huge
/// allocation before the per-element bounds checks kick in.
constexpr uint32_t kMaxTheta = 1u << 20;
constexpr uint32_t kMaxLayers = 1u << 10;
constexpr uint32_t kMaxTerms = 1u << 16;

void EncodePayload(const Checkpoint& c, serialize::Writer* w) {
  w->PutStr(c.filter_name);
  w->PutI32(c.hops);
  w->PutF64(c.hp.alpha);
  w->PutF64(c.hp.alpha2);
  w->PutF64(c.hp.beta);
  w->PutF64(c.hp.beta2);
  w->PutF64(c.hp.jacobi_a);
  w->PutF64(c.hp.jacobi_b);
  w->PutI64(c.feature_dim);
  w->PutU32(static_cast<uint32_t>(c.theta.size()));
  for (const double t : c.theta) w->PutF64(t);
  w->PutI32(c.phi1_layers);
  w->PutI64(c.phi1_in);
  w->PutI64(c.phi1_hidden);
  w->PutI64(c.phi1_out);
  w->PutF64(c.dropout);
  w->PutU32(static_cast<uint32_t>(c.phi1_weights.size()));
  for (const Matrix& m : c.phi1_weights) serialize::AppendMatrix(m, w);
  w->PutU32(static_cast<uint32_t>(c.terms.size()));
  for (const Matrix& m : c.terms) serialize::AppendMatrix(m, w);
  w->PutStr(c.meta.dataset);
  w->PutI64(c.meta.n);
  w->PutI32(c.meta.num_classes);
  w->PutF64(c.meta.rho);
  w->PutU64(c.meta.seed);
}

Status DecodePayload(serialize::Reader* r, Checkpoint* c) {
  SGNN_RETURN_IF_ERROR(r->Str(&c->filter_name, /*max_len=*/256));
  SGNN_RETURN_IF_ERROR(r->I32(&c->hops));
  SGNN_RETURN_IF_ERROR(r->F64(&c->hp.alpha));
  SGNN_RETURN_IF_ERROR(r->F64(&c->hp.alpha2));
  SGNN_RETURN_IF_ERROR(r->F64(&c->hp.beta));
  SGNN_RETURN_IF_ERROR(r->F64(&c->hp.beta2));
  SGNN_RETURN_IF_ERROR(r->F64(&c->hp.jacobi_a));
  SGNN_RETURN_IF_ERROR(r->F64(&c->hp.jacobi_b));
  SGNN_RETURN_IF_ERROR(r->I64(&c->feature_dim));
  uint32_t theta_count = 0;
  SGNN_RETURN_IF_ERROR(r->U32(&theta_count));
  if (theta_count > kMaxTheta) {
    return Status::IOError("corrupt theta count " +
                           std::to_string(theta_count));
  }
  SGNN_RETURN_IF_ERROR(r->CheckCount(theta_count, sizeof(double)));
  c->theta.resize(theta_count);
  for (auto& t : c->theta) SGNN_RETURN_IF_ERROR(r->F64(&t));
  SGNN_RETURN_IF_ERROR(r->I32(&c->phi1_layers));
  SGNN_RETURN_IF_ERROR(r->I64(&c->phi1_in));
  SGNN_RETURN_IF_ERROR(r->I64(&c->phi1_hidden));
  SGNN_RETURN_IF_ERROR(r->I64(&c->phi1_out));
  SGNN_RETURN_IF_ERROR(r->F64(&c->dropout));
  uint32_t weight_count = 0;
  SGNN_RETURN_IF_ERROR(r->U32(&weight_count));
  if (c->phi1_layers < 0 ||
      static_cast<uint32_t>(c->phi1_layers) > kMaxLayers ||
      weight_count != 2u * static_cast<uint32_t>(c->phi1_layers)) {
    return Status::IOError("corrupt phi1 spec: layers=" +
                           std::to_string(c->phi1_layers) + " weights=" +
                           std::to_string(weight_count));
  }
  c->phi1_weights.resize(weight_count);
  for (auto& m : c->phi1_weights) {
    SGNN_RETURN_IF_ERROR(serialize::ReadMatrix(r, Device::kHost, &m));
  }
  uint32_t term_count = 0;
  SGNN_RETURN_IF_ERROR(r->U32(&term_count));
  if (term_count > kMaxTerms) {
    return Status::IOError("corrupt term count " + std::to_string(term_count));
  }
  c->terms.resize(term_count);
  for (auto& m : c->terms) {
    SGNN_RETURN_IF_ERROR(serialize::ReadMatrix(r, Device::kHost, &m));
  }
  SGNN_RETURN_IF_ERROR(r->Str(&c->meta.dataset, /*max_len=*/256));
  SGNN_RETURN_IF_ERROR(r->I64(&c->meta.n));
  SGNN_RETURN_IF_ERROR(r->I32(&c->meta.num_classes));
  SGNN_RETURN_IF_ERROR(r->F64(&c->meta.rho));
  SGNN_RETURN_IF_ERROR(r->U64(&c->meta.seed));
  if (r->remaining() != 0) {
    return Status::IOError("trailing bytes after checkpoint payload");
  }
  return Status::OK();
}

/// Structural checks shared by Load and Restore: counts and shapes must be
/// mutually consistent before any of them is trusted.
Status ValidateStructure(const Checkpoint& c) {
  if (c.phi1_layers < 1) {
    return Status::IOError("checkpoint carries no phi1 layers");
  }
  if (c.terms.empty()) {
    return Status::IOError("checkpoint carries no precomputed terms");
  }
  const int64_t n = c.terms[0].rows();
  const int64_t f = c.terms[0].cols();
  for (const Matrix& t : c.terms) {
    if (t.rows() != n || t.cols() != f) {
      return Status::IOError("inconsistent term shapes in checkpoint");
    }
  }
  if (n != c.meta.n) {
    return Status::IOError("term row count disagrees with meta node count");
  }
  if (f != c.phi1_in) {
    return Status::IOError("term width disagrees with phi1 input dim");
  }
  for (int l = 0; l < c.phi1_layers; ++l) {
    const int64_t in = (l == 0) ? c.phi1_in : c.phi1_hidden;
    const int64_t out = (l == c.phi1_layers - 1) ? c.phi1_out : c.phi1_hidden;
    const Matrix& w = c.phi1_weights[static_cast<size_t>(2 * l)];
    const Matrix& b = c.phi1_weights[static_cast<size_t>(2 * l + 1)];
    if (w.rows() != in || w.cols() != out || b.rows() != 1 ||
        b.cols() != out) {
      return Status::IOError("phi1 weight shape mismatch at layer " +
                             std::to_string(l));
    }
  }
  if (c.phi1_out != c.meta.num_classes) {
    return Status::IOError("phi1 output dim disagrees with meta class count");
  }
  return Status::OK();
}

/// Creates the filter from the checkpoint spec — the single entry point
/// through which restored hyperparameters re-enter the CreateFilter
/// validation (PR-4): a hand-edited ppr checkpoint with α=0 fails here
/// with InvalidArgument instead of producing NaN logits at query time.
Result<std::unique_ptr<filters::SpectralFilter>> CreateFilterFromSpec(
    const Checkpoint& c) {
  return filters::CreateFilter(c.filter_name, c.hops, c.hp, c.feature_dim);
}

/// θ as a quantized model serves it: one (1 x K) row quantized under
/// absmax and read back. Per-channel absmax over a single row stores each θ
/// as q = ±127 with scale |θ|/127, so int8 keeps fp32 precision; fp16
/// rounds each θ to half precision.
Result<std::vector<double>> RoundTripTheta(const std::vector<double>& theta,
                                           quant::Precision precision) {
  Matrix row(1, static_cast<int64_t>(theta.size()), Device::kHost);
  for (size_t i = 0; i < theta.size(); ++i) {
    row.at(0, static_cast<int64_t>(i)) = static_cast<float>(theta[i]);
  }
  SGNN_ASSIGN_OR_RETURN(quant::QuantizedMatrix q,
                        quant::Quantize(row, precision, {}));
  quant::Dequantize(q, &row);
  return std::vector<double>(row.data(), row.data() + row.size());
}

}  // namespace

Result<Checkpoint> BuildCheckpoint(const std::string& filter_name, int hops,
                                   filters::FilterHyperParams hp,
                                   int64_t feature_dim,
                                   const models::ExportedModel& model,
                                   CheckpointMeta meta) {
  if (model.phi1.empty()) {
    return Status::InvalidArgument(
        "BuildCheckpoint: exported model has no phi1 layers");
  }
  if (model.terms.empty()) {
    return Status::InvalidArgument(
        "BuildCheckpoint: exported model has no precomputed terms");
  }
  Checkpoint c;
  c.filter_name = filter_name;
  c.hops = hops;
  c.hp = hp;
  c.feature_dim = feature_dim;
  c.theta = model.theta;
  const auto& layers = model.phi1.layers();
  c.phi1_layers = static_cast<int>(layers.size());
  c.phi1_in = layers.front().in_dim();
  c.phi1_hidden =
      layers.size() > 1 ? layers.front().out_dim() : layers.front().in_dim();
  c.phi1_out = layers.back().out_dim();
  c.dropout = model.phi1.dropout();
  for (const auto& layer : layers) {
    c.phi1_weights.push_back(layer.weight().value().CloneTo(Device::kHost));
    c.phi1_weights.push_back(layer.bias().value().CloneTo(Device::kHost));
  }
  for (const Matrix& t : model.terms) {
    c.terms.push_back(t.device() == Device::kHost ? t
                                                  : t.CloneTo(Device::kHost));
  }
  c.meta = std::move(meta);
  return c;
}

Status SaveCheckpoint(const Checkpoint& ckpt, const std::string& path) {
  serialize::Writer payload;
  EncodePayload(ckpt, &payload);
  return serialize::WriteFramedFile(path, kMagic, kCheckpointVersion, 0u,
                                   payload);
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  SGNN_ASSIGN_OR_RETURN(
      serialize::FramedFile file,
      serialize::ReadFramedFile(path, kMagic, kCheckpointVersion));
  if (file.flags != 0) {
    return Status::IOError("unknown checkpoint flags " +
                           std::to_string(file.flags) + " in " + path);
  }
  Checkpoint c;
  serialize::Reader r = file.reader();
  SGNN_RETURN_IF_ERROR(DecodePayload(&r, &c));
  SGNN_RETURN_IF_ERROR(ValidateStructure(c));
  // Hyperparameter validation: a checkpoint that decodes cleanly can still
  // carry out-of-range values (hand edits preserve the CRC when re-packed);
  // they must fail at the factory, with the factory's error.
  auto probe = CreateFilterFromSpec(c);
  if (!probe.ok()) return probe.status();
  return c;
}

Result<ServableModel> RestoreModel(const Checkpoint& ckpt,
                                   quant::Precision precision,
                                   const quant::CalibConfig& calib) {
  SGNN_RETURN_IF_ERROR(ValidateStructure(ckpt));
  ServableModel model;
  SGNN_ASSIGN_OR_RETURN(model.filter, CreateFilterFromSpec(ckpt));
  if (!model.filter->SupportsMiniBatch()) {
    return Status::InvalidArgument(
        "RestoreModel: filter " + ckpt.filter_name +
        " does not support the decoupled scheme; nothing to serve");
  }
  auto& params = model.filter->params();
  if (params.size() != ckpt.theta.size()) {
    return Status::IOError(
        "checkpoint theta count " + std::to_string(ckpt.theta.size()) +
        " disagrees with filter parameter count " +
        std::to_string(params.size()));
  }
  const bool quantized = precision != quant::Precision::kFp32;
  if (!ckpt.theta.empty()) {
    if (quantized) {
      SGNN_ASSIGN_OR_RETURN(const std::vector<double> theta,
                            RoundTripTheta(ckpt.theta, precision));
      params.Reset(theta);
    } else {
      params.Reset(ckpt.theta);
    }
  }

  // Warm-up precompute on a single self-looped node: bank filters size
  // their per-channel term slices during Precompute, and the slice layout
  // depends only on the filter structure — never on the graph — so this
  // initializes CombineTerms without touching the real (absent) graph and
  // double-checks the stored term count against the filter's structure.
  const int64_t f = ckpt.terms[0].cols();
  sparse::CsrMatrix unit(1, {0, 1}, {0}, {1.0f}, Device::kHost);
  filters::FilterContext warm_ctx{&unit, Device::kHost};
  Matrix warm_x(1, f, Device::kHost);
  std::vector<Matrix> warm_terms;
  SGNN_RETURN_IF_ERROR(
      model.filter->Precompute(warm_ctx, warm_x, &warm_terms));
  if (warm_terms.size() != ckpt.terms.size()) {
    return Status::IOError(
        "checkpoint term count " + std::to_string(ckpt.terms.size()) +
        " disagrees with filter structure (expected " +
        std::to_string(warm_terms.size()) + ")");
  }

  model.phi1 = nn::Mlp(ckpt.phi1_layers, ckpt.phi1_in, ckpt.phi1_hidden,
                       ckpt.phi1_out, ckpt.dropout, Device::kAccel);
  auto& layers = model.phi1.layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    ops::Copy(ckpt.phi1_weights[2 * l], &layers[l].weight().value());
    ops::Copy(ckpt.phi1_weights[2 * l + 1], &layers[l].bias().value());
  }
  model.meta = ckpt.meta;
  if (!quantized) {
    model.terms = ckpt.terms;
    return model;
  }

  // The fused path serves the combine from its probed weights, which is
  // exact only for a linear, channel-diagonal CombineTerms.
  bool diagonal = false;
  SGNN_RETURN_IF_ERROR(quant::ProbeCombineWeights(
      model.filter.get(), static_cast<int64_t>(ckpt.terms.size()), f,
      &model.combine_w, &diagonal));
  if (!diagonal) {
    return Status::FailedPrecondition(
        "RestoreModel: filter " + ckpt.filter_name +
        " combines its terms non-linearly or across channels; the quantized "
        "path cannot serve it");
  }
  SGNN_ASSIGN_OR_RETURN(model.qphi1,
                        quant::QuantizedMlp::FromMlp(model.phi1, precision));
  model.phi1 = nn::Mlp();
  for (const Matrix& t : ckpt.terms) {
    SGNN_ASSIGN_OR_RETURN(quant::QuantizedMatrix qt,
                          quant::Quantize(t, precision, calib));
    model.qterms.push_back(std::move(qt));
  }
  model.precision = precision;
  return model;
}

}  // namespace sgnn::serve

#include "conformance/gradcheck.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "core/registry.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace sgnn::conformance {
namespace {

// Base relative FD step (scaled by max(1, |θ|) per coordinate).
constexpr double kFdStep = 0.0625;

// One perturbable coordinate: get/set through whatever storage (double
// ScalarParams entry or float Matrix cell) the block lives in. `get` reads
// the value as actually stored, so the FD denominator uses the represented
// step, not the requested one.
struct Coord {
  std::function<double()> get;
  std::function<void(double)> set;
};

// Richardson-extrapolated central difference: D(h) = (L⁺-L⁻)/(θ⁺-θ⁻) at h
// and h/2, combined as (4·D(h/2) - D(h))/3 to cancel the O(h²) term.
double RichardsonFd(const Coord& coord, const std::function<double()>& eval,
                    double step) {
  const double orig = coord.get();
  const double h = step * std::max(1.0, std::fabs(orig));
  auto probe = [&](double hh) {
    coord.set(orig + hh);
    const double tp = coord.get();
    const double lp = eval();
    coord.set(orig - hh);
    const double tm = coord.get();
    const double lm = eval();
    coord.set(orig);
    return (lp - lm) / (tp - tm);
  };
  const double d1 = probe(h);
  const double d2 = probe(h / 2.0);
  return (4.0 * d2 - d1) / 3.0;
}

// Adaptive step for piecewise-linear (ReLU) paths: the large base step can
// cross a kink, making the secant span two linear regions. Shrink the step
// by 4x until two successive Richardson estimates agree; kink-crossing
// coordinates converge once both probes land in θ's own linear region. The
// floor (step/64 ≈ 1e-3) keeps float32 forward noise in the quotient below
// the 1e-4 tolerance. Only used for ReLU networks — on smooth-but-noisier
// objectives (the filter probe loss <W, y>) the agreement test can fail on
// noise alone and the loop would return the noisiest estimate, so smooth
// blocks use RichardsonFd at the base step directly.
double AdaptiveFd(const Coord& coord, const std::function<double()>& eval,
                  double step) {
  double prev = RichardsonFd(coord, eval, step);
  for (double s = step / 4.0; s >= step / 64.0; s /= 4.0) {
    const double cur = RichardsonFd(coord, eval, s);
    if (std::fabs(cur - prev) <=
        2.5e-5 * std::max({1.0, std::fabs(cur), std::fabs(prev)})) {
      return cur;
    }
    prev = cur;
  }
  return prev;
}

double RelErr(double fd, double an) {
  return std::fabs(fd - an) /
         std::max({1.0, std::fabs(fd), std::fabs(an)});
}

// Deterministic subsample of [0, size) with at most max_coords entries.
std::vector<size_t> SampleCoords(size_t size, size_t max_coords,
                                 uint64_t seed) {
  std::vector<size_t> idx;
  if (size <= max_coords) {
    idx.resize(size);
    for (size_t i = 0; i < size; ++i) idx[i] = i;
    return idx;
  }
  // Stride sampling with a seeded offset keeps coverage spread over the
  // block while staying deterministic per (size, seed).
  Rng rng(seed);
  const size_t offset = static_cast<size_t>(rng.UniformInt(size));
  const double stride = static_cast<double>(size) / static_cast<double>(max_coords);
  idx.reserve(max_coords);
  for (size_t i = 0; i < max_coords; ++i) {
    idx.push_back((offset + static_cast<size_t>(stride * static_cast<double>(i))) % size);
  }
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  return idx;
}

GradBlockReport CheckBlock(const std::string& name, size_t size,
                           const std::function<Coord(size_t)>& coord_at,
                           const std::function<double(size_t)>& analytic_at,
                           const std::function<double()>& eval,
                           const GradCheckOptions& opt, bool adaptive = false,
                           std::string detail = "") {
  GradBlockReport report;
  report.block = name;
  report.tolerance = opt.tolerance;
  report.detail = std::move(detail);
  for (size_t i : SampleCoords(size, opt.max_coords, opt.seed)) {
    const double fd = adaptive ? AdaptiveFd(coord_at(i), eval, kFdStep)
                               : RichardsonFd(coord_at(i), eval, kFdStep);
    const double err = RelErr(fd, analytic_at(i));
    report.max_rel_error = std::max(report.max_rel_error, err);
    ++report.checked;
  }
  report.pass = report.max_rel_error <= report.tolerance;
  if (!report.pass && report.detail.empty()) {
    report.detail = "fd/analytic mismatch";
  }
  return report;
}

Coord MatrixCoord(Matrix* m, size_t flat) {
  const int64_t r = static_cast<int64_t>(flat) / m->cols();
  const int64_t c = static_cast<int64_t>(flat) % m->cols();
  return Coord{
      [m, r, c]() { return static_cast<double>(m->at(r, c)); },
      [m, r, c](double v) { m->at(r, c) = static_cast<float>(v); }};
}

Coord ScalarCoord(std::vector<double>* values, size_t i) {
  return Coord{[values, i]() { return (*values)[i]; },
               [values, i](double v) { (*values)[i] = v; }};
}

}  // namespace

Result<std::vector<GradBlockReport>> CheckFilterGradients(
    const std::string& filter_name, const sparse::CsrMatrix& norm_adj,
    const Matrix& x, const GradCheckOptions& options) {
  if (x.rows() != norm_adj.n()) {
    return Status::InvalidArgument("gradcheck: x rows != graph nodes");
  }
  SGNN_ASSIGN_OR_RETURN(auto filter,
                        filters::CreateFilter(filter_name, options.hops, {},
                                              x.cols()));
  filters::FilterContext ctx;
  ctx.prop = &norm_adj;
  ctx.device = Device::kHost;

  Matrix xs = x;  // perturbable copy for the input-gradient block
  // First forward sizes lazily-allocated parameter groups (adagnn,
  // optbasis) and fixes the output shape for the probe weights W.
  Matrix y0;
  filter->Forward(ctx, xs, &y0, /*cache=*/false);
  Rng wrng(options.seed ^ 0xABCD);
  Matrix w(y0.rows(), y0.cols(), Device::kHost);
  w.FillNormal(&wrng);

  auto eval = [&]() {
    Matrix y;
    filter->Forward(ctx, xs, &y, /*cache=*/false);
    return ops::Dot(w, y);
  };

  // Analytic pass: L = <W, y>, so grad_y = W.
  filter->params().ZeroGrad();
  Matrix yc;
  filter->Forward(ctx, xs, &yc, /*cache=*/true);
  Matrix grad_x;
  filter->Backward(ctx, w, &grad_x);
  filter->ClearCache();

  std::vector<GradBlockReport> reports;
  auto& params = filter->params();
  size_t theta_count = params.size();
  std::string theta_detail;
  if (filter_name == "favard") {
    // The learned basis coefficients a/b are straight-through by design;
    // only the θ block carries analytic gradients.
    theta_count = static_cast<size_t>(options.hops) + 1;
    theta_detail = "theta block only (favard basis params are straight-through)";
  }
  if (theta_count > 0) {
    reports.push_back(CheckBlock(
        filter_name + "/theta", theta_count,
        [&params](size_t i) { return ScalarCoord(&params.values(), i); },
        [&params](size_t i) { return params.grads()[i]; }, eval, options,
        /*adaptive=*/false, theta_detail));
  }
  if (filter_name != "optbasis") {
    reports.push_back(CheckBlock(
        filter_name + "/input", static_cast<size_t>(xs.size()),
        [&xs](size_t i) { return MatrixCoord(&xs, i); },
        [&grad_x](size_t i) {
          return static_cast<double>(
              grad_x.at(static_cast<int64_t>(i) / grad_x.cols(),
                        static_cast<int64_t>(i) % grad_x.cols()));
        },
        eval, options));
  } else {
    GradBlockReport skip;
    skip.block = filter_name + "/input";
    skip.tolerance = options.tolerance;
    skip.pass = true;
    skip.detail = "skipped: optbasis input gradient is straight-through by design";
    reports.push_back(skip);
  }
  return reports;
}

std::vector<GradBlockReport> CheckMlpGradients(const GradCheckOptions& options) {
  const int64_t rows = 12, in_dim = 5, hidden = 8, out_dim = 4;
  nn::Mlp mlp(2, in_dim, hidden, out_dim, /*dropout=*/0.0, Device::kHost);
  Rng init(options.seed + 1);
  mlp.Init(&init);
  Rng data(options.seed + 2);
  Matrix x(rows, in_dim, Device::kHost);
  x.FillNormal(&data);
  std::vector<int32_t> labels(static_cast<size_t>(rows));
  for (auto& l : labels) {
    l = static_cast<int32_t>(data.UniformInt(static_cast<uint64_t>(out_dim)));
  }

  // Dropout is 0, so eval-mode forward equals train-mode forward and the FD
  // probes do not disturb the caches written by the analytic pass.
  auto eval = [&]() {
    Matrix out;
    mlp.Forward(x, &out, /*train=*/false, nullptr);
    Matrix grad(out.rows(), out.cols(), Device::kHost);
    return nn::SoftmaxCrossEntropy(out, labels, {}, &grad);
  };

  mlp.ZeroGrad();
  Matrix out;
  mlp.Forward(x, &out, /*train=*/true, nullptr);
  Matrix grad(out.rows(), out.cols(), Device::kHost);
  nn::SoftmaxCrossEntropy(out, labels, {}, &grad);
  Matrix grad_in;
  mlp.Backward(grad, &grad_in);

  std::vector<GradBlockReport> reports;
  for (size_t l = 0; l < mlp.layers().size(); ++l) {
    auto& layer = mlp.layers()[l];
    Matrix& wv = layer.weight().value();
    Matrix& wg = layer.weight().grad();
    reports.push_back(CheckBlock(
        "mlp/layer" + std::to_string(l) + "/weight",
        static_cast<size_t>(wv.size()),
        [&wv](size_t i) { return MatrixCoord(&wv, i); },
        [&wg](size_t i) {
          return static_cast<double>(wg.at(static_cast<int64_t>(i) / wg.cols(),
                                           static_cast<int64_t>(i) % wg.cols()));
        },
        eval, options, /*adaptive=*/true));
    Matrix& bv = layer.bias().value();
    Matrix& bg = layer.bias().grad();
    reports.push_back(CheckBlock(
        "mlp/layer" + std::to_string(l) + "/bias",
        static_cast<size_t>(bv.size()),
        [&bv](size_t i) { return MatrixCoord(&bv, i); },
        [&bg](size_t i) {
          return static_cast<double>(bg.at(static_cast<int64_t>(i) / bg.cols(),
                                           static_cast<int64_t>(i) % bg.cols()));
        },
        eval, options, /*adaptive=*/true));
  }
  reports.push_back(CheckBlock(
      "mlp/input", static_cast<size_t>(x.size()),
      [&x](size_t i) { return MatrixCoord(&x, i); },
      [&grad_in](size_t i) {
        return static_cast<double>(
            grad_in.at(static_cast<int64_t>(i) / grad_in.cols(),
                       static_cast<int64_t>(i) % grad_in.cols()));
      },
      eval, options, /*adaptive=*/true));
  return reports;
}

std::vector<GradBlockReport> CheckLossGradients(const GradCheckOptions& options) {
  std::vector<GradBlockReport> reports;
  Rng rng(options.seed + 3);

  // Softmax cross-entropy, all rows and a masked subset.
  {
    Matrix logits(6, 3, Device::kHost);
    logits.FillNormal(&rng);
    std::vector<int32_t> labels(6);
    for (auto& l : labels) l = static_cast<int32_t>(rng.UniformInt(3));
    const std::vector<std::vector<int32_t>> row_sets = {{}, {0, 2, 5}};
    const char* names[] = {"loss/softmax_ce/logits",
                           "loss/softmax_ce_masked/logits"};
    for (size_t variant = 0; variant < row_sets.size(); ++variant) {
      const auto& rows = row_sets[variant];
      Matrix grad(logits.rows(), logits.cols(), Device::kHost);
      nn::SoftmaxCrossEntropy(logits, labels, rows, &grad);
      auto eval = [&]() {
        Matrix g(logits.rows(), logits.cols(), Device::kHost);
        return nn::SoftmaxCrossEntropy(logits, labels, rows, &g);
      };
      reports.push_back(CheckBlock(
          names[variant], static_cast<size_t>(logits.size()),
          [&logits](size_t i) { return MatrixCoord(&logits, i); },
          [&grad](size_t i) {
            return static_cast<double>(
                grad.at(static_cast<int64_t>(i) / grad.cols(),
                        static_cast<int64_t>(i) % grad.cols()));
          },
          eval, options));
    }
  }

  // Binary cross-entropy with logits.
  {
    Matrix logits(8, 1, Device::kHost);
    logits.FillNormal(&rng);
    std::vector<float> targets(8);
    for (auto& t : targets) t = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    Matrix grad(8, 1, Device::kHost);
    nn::BceWithLogits(logits, targets, &grad);
    auto eval = [&]() {
      Matrix g(8, 1, Device::kHost);
      return nn::BceWithLogits(logits, targets, &g);
    };
    reports.push_back(CheckBlock(
        "loss/bce/logits", static_cast<size_t>(logits.size()),
        [&logits](size_t i) { return MatrixCoord(&logits, i); },
        [&grad](size_t i) {
          return static_cast<double>(grad.at(static_cast<int64_t>(i), 0));
        },
        eval, options));
  }

  // Mean squared error.
  {
    Matrix pred(5, 3, Device::kHost);
    Matrix target(5, 3, Device::kHost);
    pred.FillNormal(&rng);
    target.FillNormal(&rng);
    Matrix grad(5, 3, Device::kHost);
    nn::MseLoss(pred, target, &grad);
    auto eval = [&]() { return nn::MseLoss(pred, target, nullptr); };
    reports.push_back(CheckBlock(
        "loss/mse/pred", static_cast<size_t>(pred.size()),
        [&pred](size_t i) { return MatrixCoord(&pred, i); },
        [&grad](size_t i) {
          return static_cast<double>(
              grad.at(static_cast<int64_t>(i) / grad.cols(),
                      static_cast<int64_t>(i) % grad.cols()));
        },
        eval, options));
  }
  return reports;
}

Result<std::vector<GradBlockReport>> CheckAllGradients(
    const sparse::CsrMatrix& norm_adj, const Matrix& x,
    const GradCheckOptions& options) {
  std::vector<GradBlockReport> reports;
  for (const auto& name : filters::AllFilterNames()) {
    SGNN_ASSIGN_OR_RETURN(auto filter_reports,
                          CheckFilterGradients(name, norm_adj, x, options));
    for (auto& r : filter_reports) reports.push_back(std::move(r));
  }
  for (auto& r : CheckMlpGradients(options)) reports.push_back(std::move(r));
  for (auto& r : CheckLossGradients(options)) reports.push_back(std::move(r));
  return reports;
}

bool AllPass(const std::vector<GradBlockReport>& reports) {
  for (const auto& r : reports) {
    if (!r.pass) return false;
  }
  return true;
}

std::string FormatReports(const std::vector<GradBlockReport>& reports) {
  std::ostringstream os;
  for (const auto& r : reports) {
    os << (r.pass ? "  ok  " : "FAIL  ") << r.block << "  max_rel="
       << r.max_rel_error << " tol=" << r.tolerance << " coords=" << r.checked;
    if (!r.detail.empty()) os << "  (" << r.detail << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace sgnn::conformance

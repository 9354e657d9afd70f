#include "conformance/shard_check.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "core/registry.h"
#include "shard/plan.h"
#include "shard/spmm.h"

namespace sgnn::conformance {

namespace {

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

}  // namespace

Result<ShardReport> CheckShardConformance(const std::string& filter_name,
                                          const sparse::CsrMatrix& norm_adj,
                                          const eval::EigenDecomposition& eig,
                                          const Matrix& x,
                                          const std::vector<int>& shard_counts,
                                          const OracleOptions& options) {
  if (x.rows() != norm_adj.n()) {
    return Status::InvalidArgument("shard conformance: x rows != graph nodes");
  }
  if (static_cast<int64_t>(eig.values.size()) != x.rows()) {
    return Status::InvalidArgument(
        "shard conformance: eigendecomposition size mismatch");
  }
  SGNN_ASSIGN_OR_RETURN(
      auto filter,
      filters::CreateFilter(filter_name, options.hops, options.hp, x.cols()));

  ShardReport report;
  report.filter = filter_name;
  report.shard_counts = shard_counts;
  report.tolerance = OracleTolerance(filter_name);
  report.forward_bit_identical = true;
  report.precompute_bit_identical = true;

  filters::FilterContext ctx;
  ctx.prop = &norm_adj;
  ctx.device = Device::kHost;

  // Unsharded baselines.
  Matrix y_base;
  filter->Forward(ctx, x, &y_base, /*cache=*/false);
  std::vector<Matrix> terms_base;
  if (filter->SupportsMiniBatch()) {
    SGNN_RETURN_IF_ERROR(filter->Precompute(ctx, x, &terms_base));
  }

  Matrix y_sharded;  // last sharded forward, for the oracle gate
  for (const int k : shard_counts) {
    const shard::ShardPlan plan = shard::BuildShardPlan(
        norm_adj, shard::PartitionOptions{k, /*seed=*/7});
    const shard::ShardedSpmmOperator op(&plan);
    filters::FilterContext sharded_ctx = ctx;
    sharded_ctx.op = &op;

    Matrix y_k;
    filter->Forward(sharded_ctx, x, &y_k, /*cache=*/false);
    if (!BitIdentical(y_base, y_k)) {
      report.forward_bit_identical = false;
      report.detail = "forward differs at K=" + std::to_string(k);
    }
    y_sharded = std::move(y_k);

    if (filter->SupportsMiniBatch()) {
      std::vector<Matrix> terms_k;
      SGNN_RETURN_IF_ERROR(filter->Precompute(sharded_ctx, x, &terms_k));
      bool same = terms_k.size() == terms_base.size();
      for (size_t i = 0; same && i < terms_k.size(); ++i) {
        same = BitIdentical(terms_base[i], terms_k[i]);
      }
      if (!same) {
        report.precompute_bit_identical = false;
        report.detail = "precompute terms differ at K=" + std::to_string(k);
      }
    }
  }

  const bool bits_identical =
      report.forward_bit_identical && report.precompute_bit_identical;
  bool degenerate = false;
  const Matrix ref = DenseReference(filter.get(), filter_name, norm_adj, eig,
                                    x, options.hops, &degenerate);
  if (degenerate) {
    report.skipped = true;
    report.pass = bits_identical;
    if (report.pass) {
      report.detail = "lanczos breakdown: dense reference undefined";
    }
    return report;
  }

  report.rel_error = RelativeFrobenius(y_sharded, ref);
  report.pass = bits_identical && report.rel_error <= report.tolerance;
  if (report.pass) {
    report.detail.clear();
  } else if (bits_identical) {
    report.detail = "sharded forward diverges from dense spectral operator";
  }
  return report;
}

Result<std::vector<ShardReport>> CheckAllSharded(
    const sparse::CsrMatrix& norm_adj, const eval::EigenDecomposition& eig,
    const Matrix& x, const std::vector<int>& shard_counts,
    const OracleOptions& options) {
  std::vector<ShardReport> reports;
  for (const auto& name : filters::AllFilterNames()) {
    SGNN_ASSIGN_OR_RETURN(
        auto report,
        CheckShardConformance(name, norm_adj, eig, x, shard_counts, options));
    reports.push_back(std::move(report));
  }
  return reports;
}

bool AllShardPass(const std::vector<ShardReport>& reports) {
  for (const auto& r : reports) {
    if (!r.pass) return false;
  }
  return true;
}

std::string FormatShardReports(const std::vector<ShardReport>& reports) {
  std::ostringstream os;
  for (const auto& r : reports) {
    os << (r.pass ? "  ok  " : "FAIL  ") << r.filter << "  K={";
    for (size_t i = 0; i < r.shard_counts.size(); ++i) {
      os << (i > 0 ? "," : "") << r.shard_counts[i];
    }
    os << "}  fwd=" << (r.forward_bit_identical ? "exact" : "DIFF")
       << " pre=" << (r.precompute_bit_identical ? "exact" : "DIFF");
    if (!r.skipped) {
      os << " rel=" << r.rel_error << " tol=" << r.tolerance;
    }
    if (!r.detail.empty()) os << "  (" << r.detail << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace sgnn::conformance

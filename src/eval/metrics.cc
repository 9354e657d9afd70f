#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/status.h"

namespace sgnn::eval {

double Accuracy(const Matrix& logits, const std::vector<int32_t>& labels,
                const std::vector<int32_t>& rows) {
  if (rows.empty()) return 0.0;
  int64_t correct = 0;
  for (const int32_t r : rows) {
    const float* lrow = logits.row(r);
    int64_t best = 0;
    for (int64_t j = 1; j < logits.cols(); ++j) {
      if (lrow[j] > lrow[best]) best = j;
    }
    if (best == labels[static_cast<size_t>(r)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows.size());
}

double RocAucFromScores(const std::vector<double>& scores,
                        const std::vector<int32_t>& truth) {
  SGNN_CHECK(scores.size() == truth.size(), "RocAuc: size mismatch");
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  // Midranks for ties. `order` is sorted ascending, so a successor that is
  // not strictly greater is tied with the group head — same grouping as
  // `==` without comparing floats for equality.
  std::vector<double> rank(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && !(scores[order[i]] < scores[order[j + 1]])) ++j;
    const double mid = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) rank[order[k]] = mid;
    i = j + 1;
  }
  double pos_rank_sum = 0.0;
  int64_t n_pos = 0;
  for (size_t k = 0; k < n; ++k) {
    if (truth[k] == 1) {
      pos_rank_sum += rank[k];
      ++n_pos;
    }
  }
  const int64_t n_neg = static_cast<int64_t>(n) - n_pos;
  if (n_pos == 0 || n_neg == 0) return 0.5;
  const double u =
      pos_rank_sum - static_cast<double>(n_pos) * (n_pos + 1) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

double RocAuc(const Matrix& logits, const std::vector<int32_t>& labels,
              const std::vector<int32_t>& rows) {
  SGNN_CHECK(logits.cols() >= 2, "RocAuc: need two-class logits");
  std::vector<double> scores;
  std::vector<int32_t> truth;
  scores.reserve(rows.size());
  truth.reserve(rows.size());
  for (const int32_t r : rows) {
    scores.push_back(static_cast<double>(logits.at(r, 1)) - logits.at(r, 0));
    truth.push_back(labels[static_cast<size_t>(r)] == 1 ? 1 : 0);
  }
  return RocAucFromScores(scores, truth);
}

double R2Score(const Matrix& pred, const Matrix& target) {
  SGNN_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols(),
             "R2Score: shape mismatch");
  const int64_t n = target.size();
  if (n == 0) return 0.0;
  double mean = 0.0;
  for (int64_t i = 0; i < n; ++i) mean += target.data()[i];
  mean /= static_cast<double>(n);
  double ss_res = 0.0, ss_tot = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double t = target.data()[i];
    const double p = pred.data()[i];
    ss_res += (t - p) * (t - p);
    ss_tot += (t - mean) * (t - mean);
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

MeanStd Summarize(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  for (const double v : values) out.mean += v;
  out.mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) var += (v - out.mean) * (v - out.mean);
  out.stddev = std::sqrt(var / static_cast<double>(values.size()));
  return out;
}

}  // namespace sgnn::eval

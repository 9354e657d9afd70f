// Effectiveness metrics: accuracy, ROC AUC, R², F1 (paper Section 4).

#ifndef SGNN_EVAL_METRICS_H_
#define SGNN_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace sgnn::eval {

/// Fraction of rows in `rows` whose argmax logit equals the label.
double Accuracy(const Matrix& logits, const std::vector<int32_t>& labels,
                const std::vector<int32_t>& rows);

/// Area under the ROC curve for binary problems. `scores` holds one score
/// per selected row (higher = class 1); ties are handled by midrank.
double RocAucFromScores(const std::vector<double>& scores,
                        const std::vector<int32_t>& truth);

/// ROC AUC over the listed rows using the class-1 logit-difference as score.
/// Requires exactly two classes (logits with >= 2 columns).
double RocAuc(const Matrix& logits, const std::vector<int32_t>& labels,
              const std::vector<int32_t>& rows);

/// Coefficient of determination R² between prediction and target columns
/// (flattened across all entries).
double R2Score(const Matrix& pred, const Matrix& target);

/// Mean and (population) standard deviation of a sample.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd Summarize(const std::vector<double>& values);

}  // namespace sgnn::eval

#endif  // SGNN_EVAL_METRICS_H_

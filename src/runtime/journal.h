// JSONL run journal — the crash-resume backbone of the supervised runner.
//
// Every supervised cell (one dataset x filter x scheme x seed configuration
// of a bench grid) appends one self-describing JSON line when it reaches a
// terminal state. Re-opening a journal replays those lines, so a bench
// binary killed mid-grid resumes from the last completed cell instead of
// re-running a multi-hour table, and the replayed records reproduce the
// exact table an uninterrupted run would have printed.

#ifndef SGNN_RUNTIME_JOURNAL_H_
#define SGNN_RUNTIME_JOURNAL_H_

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "models/trainer.h"
#include "tensor/status.h"

namespace sgnn::runtime {

/// Terminal state of one supervised cell; mirrors how the paper's tables
/// mark "(OOM)" entries instead of dropping the row.
enum class CellStatus {
  kOk = 0,
  kOom,       ///< simulated accelerator over capacity (and no fallback)
  kTimeout,   ///< wall-clock deadline exceeded
  kDiverged,  ///< NaN/Inf loss or gradient
  kSkipped,   ///< cell not runnable (bad filter name, FB-only filter, ...)
  kFailed,    ///< any other non-OK status (IO error, precompute failure)
};

/// "OK" / "OOM" / "TIMEOUT" / "DIVERGED" / "SKIPPED" / "FAILED".
const char* CellStatusName(CellStatus status);

/// Parses a CellStatusName string; defaults to kFailed for unknown input.
CellStatus CellStatusFromName(const std::string& name);

/// Identity of one grid cell. `variant` disambiguates grids whose axes go
/// beyond (dataset, filter, scheme, seed) — e.g. "K=6" or "rho=0.25".
struct CellKey {
  CellKey() = default;
  CellKey(std::string dataset, std::string filter, std::string scheme,
          int seed = 1, std::string variant = "")
      : dataset(std::move(dataset)),
        filter(std::move(filter)),
        scheme(std::move(scheme)),
        seed(seed),
        variant(std::move(variant)) {}

  std::string dataset;
  std::string filter;
  std::string scheme;  ///< "fb", "mb", "gp", "iterative", ...
  int seed = 1;
  std::string variant;

  /// Stable journal key "dataset/filter/scheme/seed/variant".
  std::string Id() const;
};

/// One journal line: cell identity plus everything a bench needs to rebuild
/// its table row without re-running the cell.
struct CellRecord {
  CellKey key;
  CellStatus status = CellStatus::kOk;
  std::string detail;        ///< error message for non-OK cells
  std::string final_scheme;  ///< scheme that produced the result
  bool fell_back = false;    ///< FB OOM degraded to the MB scheme
  int attempts = 1;
  /// False for intermediate attempt records (e.g. the FB OOM that precedes
  /// an MB fallback); resume skips a cell only once a terminal record
  /// exists.
  bool terminal = true;

  double val_metric = 0.0;
  double test_metric = 0.0;
  double train_loss = 0.0;
  models::StageStats stats;
  double wall_ms = 0.0;
  /// Bench-specific derived scalars (e.g. silhouette score, degree-gap)
  /// journaled as "x_<name>" so resumed cells can rebuild exotic columns.
  std::vector<std::pair<std::string, double>> extras;

  bool ok() const { return status == CellStatus::kOk; }
  /// Value of an extra by name, or `fallback` when absent.
  double Extra(const std::string& name, double fallback = 0.0) const;
};

/// Serializes a record as one JSON object (no trailing newline).
std::string EncodeRecord(const std::string& bench, const CellRecord& record);

/// Parses a journal line; returns InvalidArgument on malformed input,
/// including an integer field whose value is not finite or out of range.
[[nodiscard]] Result<CellRecord> DecodeRecord(const std::string& line);

/// Append-only JSONL journal with replay-on-open.
class Journal {
 public:
  /// A journal with an empty path is disabled: Append is a no-op and Find
  /// always misses.
  explicit Journal(std::string path);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Appends one record and flushes, so a SIGKILL loses at most the cell in
  /// flight. Malformed lines already in the file are skipped on load.
  void Append(const std::string& bench, const CellRecord& record);

  /// Latest *terminal* record for the cell, or nullptr.
  const CellRecord* Find(const CellKey& key) const;

  /// Number of terminal records replayed from disk at open.
  size_t replayed() const { return replayed_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::map<std::string, CellRecord> terminal_;
  size_t replayed_ = 0;
};

}  // namespace sgnn::runtime

#endif  // SGNN_RUNTIME_JOURNAL_H_

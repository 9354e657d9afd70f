#include "runtime/supervisor.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "tensor/parallel.h"
#include "eval/table.h"
#include "tensor/device.h"

namespace sgnn::runtime {

std::string DefaultJournalPath(const std::string& bench_name) {
  const char* dir = std::getenv("SPECTRAL_JOURNAL_DIR");
  if (dir == nullptr || dir[0] == '\0') return "";
  return std::string(dir) + "/" + bench_name + ".jsonl";
}

Supervisor::Supervisor(std::string bench_name, std::string journal_path)
    : bench_(std::move(bench_name)) {
  if (journal_path.empty()) journal_path = DefaultJournalPath(bench_);
  journal_ = std::make_unique<Journal>(std::move(journal_path));
  if (journal_->enabled() && journal_->replayed() > 0) {
    std::printf("[%s] journal %s: %zu completed cell(s) will be skipped\n",
                bench_.c_str(), journal_->path().c_str(),
                journal_->replayed());
  }
}

const CellRecord* Supervisor::Find(const CellKey& key) const {
  return journal_->Find(key);
}

CellRecord Supervisor::Skip(const CellKey& key, CellStatus status,
                            std::string detail) {
  CellRecord record;
  record.key = key;
  record.status = status;
  record.detail = std::move(detail);
  record.final_scheme = key.scheme;
  // Skips never ran a trainer, so stamp the thread count here; every
  // journal row then carries it (bench rows are comparable across
  // SGNN_NUM_THREADS settings).
  record.stats.threads = parallel::NumThreads();
  journal_->Append(bench_, record);
  return record;
}

void Supervisor::FillFromResult(const models::TrainResult& result,
                                CellRecord* record) {
  record->val_metric = result.val_metric;
  record->test_metric = result.test_metric;
  record->train_loss = result.final_train_loss;
  record->stats = result.stats;
  if (result.oom) {
    record->status = CellStatus::kOom;
  } else if (result.timed_out) {
    record->status = CellStatus::kTimeout;
  } else if (result.diverged) {
    record->status = CellStatus::kDiverged;
  } else if (!result.status.ok()) {
    const StatusCode code = result.status.code();
    if (code == StatusCode::kInvalidArgument ||
        code == StatusCode::kNotFound) {
      // The cell cannot run: a bad hyperparameter, or a filter name
      // CreateFilter does not know (however the scheme built its filter).
      record->status = CellStatus::kSkipped;
    } else {
      record->status = CellStatus::kFailed;
    }
  } else {
    record->status = CellStatus::kOk;
  }
  if (!result.status.ok()) record->detail = result.status.ToString();
}

CellRecord Supervisor::Run(const CellKey& key, const RunFn& body,
                           const PostFn& post) {
  if (const CellRecord* done = Find(key)) {
    ++resumed_;
    return *done;
  }
  CellRecord record;
  record.key = key;
  record.final_scheme = key.scheme;
  eval::Stopwatch sw;
  const models::TrainResult result = body();
  record.wall_ms = sw.ElapsedMs();
  FillFromResult(result, &record);
  if (post && record.ok()) post(result, &record);
  journal_->Append(bench_, record);
  return record;
}

CellRecord Supervisor::RunTraining(const CellKey& key, const graph::Graph& g,
                                   const graph::Splits& splits,
                                   graph::Metric metric,
                                   const models::TrainConfig& config,
                                   const RunOptions& options,
                                   const PostFn& post) {
  if (const CellRecord* done = Find(key)) {
    ++resumed_;
    return *done;
  }
  auto make_filter = [&]() {
    return filters::CreateFilter(key.filter, options.hops, options.hp,
                                 g.features.cols());
  };
  auto filter_or = make_filter();
  if (!filter_or.ok()) {
    return Skip(key, CellStatus::kSkipped, filter_or.status().ToString());
  }
  auto filter = filter_or.MoveValue();

  const bool want_mb = key.scheme == "mb";
  if (want_mb && !filter->SupportsMiniBatch()) {
    return Skip(key, CellStatus::kSkipped,
                "filter " + key.filter + " is full-batch only");
  }

  CellRecord record;
  record.key = key;
  record.final_scheme = key.scheme;
  eval::Stopwatch sw;
  models::TrainResult result;
  if (want_mb) {
    models::TrainConfig mb_config = config;
    mb_config.phi0_layers = 0;
    if (mb_config.phi1_layers < 2) mb_config.phi1_layers = 2;
    result = models::TrainMiniBatch(g, splits, metric, filter.get(),
                                    mb_config);
  } else {
    result = models::TrainFullBatch(g, splits, metric, filter.get(), config);
    if (result.oom && options.fallback_to_mb && filter->SupportsMiniBatch()) {
      // Journals the failed FB attempt (non-terminal), so the fallback is
      // visible in the journal, then degrades to the decoupled mini-batch
      // scheme on a fresh filter.
      CellRecord attempt;
      attempt.key = key;
      attempt.terminal = false;
      attempt.final_scheme = "fb";
      attempt.wall_ms = sw.ElapsedMs();
      FillFromResult(result, &attempt);
      journal_->Append(bench_, attempt);
      DeviceTracker::Global().ClearOom();
      auto retry_or = make_filter();
      if (retry_or.ok()) {
        auto retry_filter = retry_or.MoveValue();
        models::TrainConfig mb_config = config;
        mb_config.phi0_layers = 0;
        if (mb_config.phi1_layers < 2) mb_config.phi1_layers = 2;
        result = models::TrainMiniBatch(g, splits, metric,
                                        retry_filter.get(), mb_config);
        record.fell_back = true;
        record.final_scheme = "mb";
        ++record.attempts;
      }
    }
  }
  record.wall_ms = sw.ElapsedMs();
  FillFromResult(result, &record);
  if (post && record.ok()) post(result, &record);
  journal_->Append(bench_, record);
  return record;
}

}  // namespace sgnn::runtime

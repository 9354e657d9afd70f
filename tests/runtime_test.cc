// Tests for the fault-tolerant run harness: journal encode/decode and
// resume, fault-plan parsing and deterministic injection, the supervisor's
// status mapping (including kUnavailable -> SHED) and FB->MB OOM
// degradation, and the jittered-backoff retry helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "graph/datasets.h"
#include "graph/generator.h"
#include "models/iterative.h"
#include "models/linkpred.h"
#include "models/trainer.h"
#include "runtime/fault_injection.h"
#include "runtime/journal.h"
#include "runtime/retry.h"
#include "runtime/supervisor.h"
#include "tensor/device.h"
#include "tensor/rng.h"

namespace sgnn::runtime {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

graph::Graph SmallGraph() {
  graph::GeneratorConfig c;
  c.n = 400;
  c.avg_degree = 8.0;
  c.num_classes = 4;
  c.homophily = 0.85;
  c.feature_dim = 16;
  c.noise = 2.0;
  c.seed = 3;
  return graph::GenerateSbm(c);
}

models::TrainConfig FastConfig() {
  models::TrainConfig c;
  c.epochs = 20;
  c.eval_every = 5;
  c.hidden = 32;
  c.batch_size = 256;
  return c;
}

TEST(JournalRecord, EncodeDecodeRoundTrip) {
  CellRecord r;
  r.key = {"cora_sim", "chebyshev", "fb", 3, "K=6"};
  r.status = CellStatus::kOk;
  r.final_scheme = "fb";
  r.val_metric = 0.91;
  r.test_metric = 0.875;
  r.train_loss = 0.31;
  r.stats.precompute_ms = 1.5;
  r.stats.train_ms_per_epoch = 22.25;
  r.stats.infer_ms = 3.0;
  r.stats.peak_ram_bytes = 12345;
  r.stats.peak_accel_bytes = 67890;
  r.wall_ms = 812.5;
  r.extras.emplace_back("sil", 0.42);
  r.extras.emplace_back("ratio", 1.25);

  const std::string line = EncodeRecord("fig8", r);
  auto decoded_or = DecodeRecord(line);
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status().ToString();
  const CellRecord d = decoded_or.value();
  EXPECT_EQ(d.key.Id(), r.key.Id());
  EXPECT_EQ(d.status, CellStatus::kOk);
  EXPECT_TRUE(d.terminal);
  EXPECT_DOUBLE_EQ(d.val_metric, r.val_metric);
  EXPECT_DOUBLE_EQ(d.test_metric, r.test_metric);
  EXPECT_DOUBLE_EQ(d.train_loss, r.train_loss);
  EXPECT_DOUBLE_EQ(d.stats.train_ms_per_epoch, r.stats.train_ms_per_epoch);
  EXPECT_EQ(d.stats.peak_ram_bytes, r.stats.peak_ram_bytes);
  EXPECT_EQ(d.stats.peak_accel_bytes, r.stats.peak_accel_bytes);
  EXPECT_DOUBLE_EQ(d.wall_ms, r.wall_ms);
  EXPECT_DOUBLE_EQ(d.Extra("sil"), 0.42);
  EXPECT_DOUBLE_EQ(d.Extra("ratio"), 1.25);
  EXPECT_DOUBLE_EQ(d.Extra("absent", -1.0), -1.0);
}

TEST(JournalRecord, EscapesSpecialCharacters) {
  CellRecord r;
  r.key = {"data\"set", "fil\\ter", "fb", 1, "tab\there"};
  r.status = CellStatus::kFailed;
  r.detail = "line1\nline2 \"quoted\"";
  const std::string line = EncodeRecord("b", r);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per record
  auto d = DecodeRecord(line);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value().key.dataset, "data\"set");
  EXPECT_EQ(d.value().key.filter, "fil\\ter");
  EXPECT_EQ(d.value().key.variant, "tab\there");
  EXPECT_EQ(d.value().detail, "line1\nline2 \"quoted\"");
}

TEST(JournalRecord, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeRecord("not json").ok());
  EXPECT_FALSE(DecodeRecord("{\"bench\":\"x\", truncated").ok());
}

/// `line` with the value of numeric field `key` replaced by `value`.
std::string WithField(std::string line, const std::string& key,
                      const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const size_t start = line.find(tag) + tag.size();
  const size_t end = line.find_first_of(",}", start);
  return line.replace(start, end - start, value);
}

TEST(JournalRecord, OutOfRangeIntegerFieldsAreInvalidArgument) {
  CellRecord r;
  r.key = {"d", "f", "fb", 1, ""};
  const std::string line = EncodeRecord("b", r);
  ASSERT_TRUE(DecodeRecord(line).ok());
  // Casting any of these to the field's integer type would be undefined
  // behaviour (UBSan's float-cast-overflow).
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"seed", "1e300"},         {"seed", "-1e300"},
      {"seed", "2147483648"},    {"seed", "nan"},
      {"threads", "1e10"},       {"threads", "inf"},
      {"ram_bytes", "1e300"},    {"ram_bytes", "-1"},
      {"ram_bytes", "1.9e19"},   {"attempts", "-3e9"},
      {"shards", "1e300"},       {"accel_bytes", "1e20"},
      {"shard_spills", "1e19"},
  };
  for (const auto& [key, value] : bad) {
    const auto d = DecodeRecord(WithField(line, key, value));
    ASSERT_FALSE(d.ok()) << key << "=" << value;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument)
        << key << "=" << value;
  }
  // The extremes of each range still decode.
  const auto edge = DecodeRecord(WithField(
      WithField(WithField(line, "seed", "-2147483648"), "threads",
                "2147483647"),
      "ram_bytes", "0"));
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge.value().key.seed, -2147483647 - 1);
  EXPECT_EQ(edge.value().stats.threads, 2147483647);
}

TEST(Journal, DisabledWithEmptyPath) {
  Journal j("");
  EXPECT_FALSE(j.enabled());
  CellRecord r;
  r.key = {"d", "f", "fb", 1, ""};
  j.Append("b", r);  // no-op, must not crash
  EXPECT_EQ(j.Find(r.key), nullptr);
}

TEST(Journal, ReplaysTerminalRecordsAcrossInstances) {
  const std::string path = TempPath("journal_replay.jsonl");
  std::remove(path.c_str());
  {
    Journal j(path);
    EXPECT_EQ(j.replayed(), 0u);
    CellRecord done;
    done.key = {"cora_sim", "ppr", "fb", 1, ""};
    done.test_metric = 0.9;
    j.Append("t", done);
    CellRecord attempt;  // non-terminal: must not satisfy Find on reload
    attempt.key = {"cora_sim", "ppr", "fb", 2, ""};
    attempt.terminal = false;
    attempt.status = CellStatus::kOom;
    j.Append("t", attempt);
  }
  Journal j2(path);
  EXPECT_EQ(j2.replayed(), 1u);
  const CellRecord* found = j2.Find({"cora_sim", "ppr", "fb", 1, ""});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->test_metric, 0.9);
  EXPECT_EQ(j2.Find({"cora_sim", "ppr", "fb", 2, ""}), nullptr);
  std::remove(path.c_str());
}

TEST(Journal, ToleratesTornFinalLine) {
  const std::string path = TempPath("journal_torn.jsonl");
  std::remove(path.c_str());
  {
    Journal j(path);
    CellRecord r;
    r.key = {"d", "f", "fb", 1, ""};
    j.Append("t", r);
  }
  {
    // Simulate a SIGKILL mid-write: a truncated trailing line.
    std::ofstream f(path, std::ios::app);
    f << "{\"bench\":\"t\",\"dataset\":\"d2\",\"fil";
  }
  Journal j(path);
  EXPECT_EQ(j.replayed(), 1u);
  EXPECT_NE(j.Find({"d", "f", "fb", 1, ""}), nullptr);
  std::remove(path.c_str());
}

TEST(FaultPlanParse, ParsesFullPlan) {
  auto p = ParseFaultPlan("accel_nth=120,accel_prob=0.01,seed=7");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p.value().accel_alloc_fail_nth, 120u);
  EXPECT_DOUBLE_EQ(p.value().accel_alloc_fail_prob, 0.01);
  EXPECT_EQ(p.value().seed, 7u);
}

TEST(FaultPlanParse, RejectsUnknownKeysAndBadProbs) {
  EXPECT_FALSE(ParseFaultPlan("bogus=1").ok());
  EXPECT_FALSE(ParseFaultPlan("io_nth=3").ok());
  EXPECT_FALSE(ParseFaultPlan("accel_prob=1.5").ok());
  EXPECT_FALSE(ParseFaultPlan("accel_prob=-0.1").ok());
  EXPECT_FALSE(ParseFaultPlan("io_prob=-0.1").ok());
  // Each value must be a number as a whole: no words, no sign on a count,
  // no NaN, no empty seed.
  for (const char* bad : {"accel_nth=abc", "accel_prob=x", "accel_nth=-1",
                          "accel_prob=nan", "seed="}) {
    const auto p = ParseFaultPlan(bad);
    ASSERT_FALSE(p.ok()) << bad;
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument) << bad;
    const std::string text = bad;
    EXPECT_NE(p.status().message().find(text.substr(0, text.find('='))),
              std::string::npos)
        << p.status().ToString();
  }
}

TEST(FaultInjector, NthAllocFaultLatchesOomOnce) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  auto& inj = FaultInjector::Global();
  FaultPlan plan;
  plan.accel_alloc_fail_nth = 3;
  inj.Arm(plan);
  tracker.OnAlloc(Device::kAccel, 8);
  tracker.OnAlloc(Device::kAccel, 8);
  EXPECT_FALSE(tracker.accel_oom());
  tracker.OnAlloc(Device::kAccel, 8);  // the scripted 3rd allocation
  EXPECT_TRUE(tracker.accel_oom());
  EXPECT_EQ(inj.observed_accel_allocs(), 3u);
  EXPECT_EQ(inj.injected_alloc_faults(), 1u);
  tracker.OnAlloc(Device::kAccel, 8);  // one-shot: no further faults
  EXPECT_EQ(inj.injected_alloc_faults(), 1u);
  tracker.OnFree(Device::kAccel, 32);
  inj.Disarm();
  tracker.ResetAll();
}

TEST(FaultInjector, ProbabilisticFaultsAreSeedDeterministic) {
  auto& tracker = DeviceTracker::Global();
  auto& inj = FaultInjector::Global();
  FaultPlan plan;
  plan.accel_alloc_fail_prob = 0.3;
  plan.seed = 11;
  auto run = [&] {
    tracker.ResetAll();
    inj.Arm(plan);
    std::vector<bool> oom_after;
    for (int i = 0; i < 50; ++i) {
      tracker.OnAlloc(Device::kAccel, 8);
      oom_after.push_back(tracker.accel_oom());
      tracker.ClearOom();
      tracker.OnFree(Device::kAccel, 8);
    }
    inj.Disarm();
    return oom_after;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);  // same plan + seed => identical fault sequence
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  tracker.ResetAll();
}

TEST(Supervisor, RecordsSkippedForUnknownFilter) {
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  Supervisor sup("test", "");
  const CellRecord r = sup.RunTraining({"g", "no_such_filter", "fb", 1}, g, s,
                                       graph::Metric::kAccuracy,
                                       FastConfig());
  EXPECT_EQ(r.status, CellStatus::kSkipped);
  EXPECT_NE(r.detail.find("no_such_filter"), std::string::npos);
}

TEST(Supervisor, RunRecordsSkippedForUnknownFilterInEveryScheme) {
  // Schemes that build their filter inside the cell body (GP as sgnn_run
  // does, iterative inside its trainer) hand back CreateFilter's NotFound,
  // which journals SKIPPED like RunTraining's own check.
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  Supervisor sup("test", "");
  const CellRecord gp = sup.Run({"g", "no_such_filter", "gp", 1}, [&] {
    models::TrainResult r;
    r.status = filters::CreateFilter("no_such_filter", 4).status();
    return r;
  });
  const CellRecord iterative =
      sup.Run({"g", "no_such_filter", "iterative", 1}, [&] {
        models::IterativeConfig cfg;
        cfg.base = FastConfig();
        cfg.layer_filter = "no_such_filter";
        return models::TrainIterative(g, s, graph::Metric::kAccuracy, cfg);
      });
  for (const CellRecord& r : {gp, iterative}) {
    EXPECT_EQ(r.status, CellStatus::kSkipped) << r.key.scheme;
    EXPECT_NE(r.detail.find("no_such_filter"), std::string::npos)
        << r.key.scheme;
  }
}

TEST(Supervisor, RecordsSkippedForFullBatchOnlyFilterInMbScheme) {
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  Supervisor sup("test", "");
  const CellRecord r = sup.RunTraining({"g", "adagnn", "mb", 1}, g, s,
                                       graph::Metric::kAccuracy,
                                       FastConfig());
  EXPECT_EQ(r.status, CellStatus::kSkipped);
}

TEST(Supervisor, ResumeSkipsJournaledCellsAndRebuildsSameRow) {
  const std::string path = TempPath("supervisor_resume.jsonl");
  std::remove(path.c_str());
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  const CellKey key{"small", "ppr", "fb", 1, ""};
  int executions = 0;
  auto body = [&] {
    ++executions;
    models::TrainResult tr;
    tr.test_metric = 0.75;
    return tr;
  };
  CellRecord first;
  {
    Supervisor sup("test", path);
    first = sup.Run(key, body);
    EXPECT_EQ(sup.resumed_cells(), 0u);
  }
  {
    Supervisor sup("test", path);
    const CellRecord again = sup.Run(key, body);
    EXPECT_EQ(sup.resumed_cells(), 1u);
    EXPECT_EQ(executions, 1);  // body did not run a second time
    EXPECT_DOUBLE_EQ(again.test_metric, first.test_metric);
    EXPECT_EQ(again.status, first.status);
  }
  std::remove(path.c_str());
}

TEST(Supervisor, FullBatchOomFallsBackToMiniBatch) {
  const std::string path = TempPath("supervisor_fallback.jsonl");
  std::remove(path.c_str());
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);

  // Fail an early accelerator allocation: FB OOMs, the MB retry must
  // survive because the one-shot fault is already spent.
  auto& inj = FaultInjector::Global();
  FaultPlan plan;
  plan.accel_alloc_fail_nth = 10;
  inj.Arm(plan);

  CellRecord rec;
  {
    Supervisor sup("test", path);
    rec = sup.RunTraining({"small", "ppr", "fb", 1}, g, s,
                          graph::Metric::kAccuracy, FastConfig());
  }
  inj.Disarm();
  tracker.ResetAll();

  EXPECT_TRUE(rec.ok());
  EXPECT_TRUE(rec.fell_back);
  EXPECT_EQ(rec.final_scheme, "mb");
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_GT(rec.test_metric, 0.5);

  // The journal must show both the OOM attempt and the fallback result.
  std::ifstream f(path);
  std::string line;
  int oom_attempts = 0, terminal_fallbacks = 0;
  while (std::getline(f, line)) {
    auto d = DecodeRecord(line);
    ASSERT_TRUE(d.ok());
    if (!d.value().terminal && d.value().status == CellStatus::kOom) {
      ++oom_attempts;
    }
    if (d.value().terminal && d.value().fell_back) ++terminal_fallbacks;
  }
  EXPECT_EQ(oom_attempts, 1);
  EXPECT_EQ(terminal_fallbacks, 1);
  std::remove(path.c_str());
}

TEST(Supervisor, OomWithoutFallbackIsReported) {
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  tracker.set_accel_capacity(64 * 1024);  // everything OOMs
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  Supervisor sup("test", "");
  RunOptions opts;
  opts.fallback_to_mb = false;
  const CellRecord r = sup.RunTraining({"small", "ppr", "fb", 1}, g, s,
                                       graph::Metric::kAccuracy, FastConfig(),
                                       opts);
  tracker.set_accel_capacity(0);
  tracker.ResetAll();
  EXPECT_EQ(r.status, CellStatus::kOom);
  EXPECT_FALSE(r.fell_back);
}

TEST(Supervisor, LinkPredictionOomRecordsOomCell) {
  // Link prediction reports OOM through its TrainResult like every scheme,
  // so Supervisor::Run journals the cell as OOM, not OK.
  auto& tracker = DeviceTracker::Global();
  tracker.ResetAll();
  tracker.set_accel_capacity(64 * 1024);
  graph::Graph g = SmallGraph();
  Supervisor sup("test", "");
  const CellRecord r = sup.Run({"small", "ppr", "mb", 1, "linkpred"}, [&] {
    auto filter = filters::CreateFilter("ppr", 4).MoveValue();
    models::LinkPredConfig cfg;
    cfg.base = FastConfig();
    return models::TrainLinkPrediction(g, filter.get(), cfg);
  });
  tracker.set_accel_capacity(0);
  tracker.ResetAll();
  EXPECT_EQ(r.status, CellStatus::kOom);
}

TEST(Supervisor, DeadlineProducesTimeoutCell) {
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  Supervisor sup("test", "");
  models::TrainConfig cfg = FastConfig();
  cfg.epochs = 100000;
  cfg.deadline_ms = 1.0;
  const CellRecord r = sup.RunTraining({"small", "ppr", "fb", 1}, g, s,
                                       graph::Metric::kAccuracy, cfg);
  EXPECT_EQ(r.status, CellStatus::kTimeout);
}

// Kill-and-resume round trip: a grid interrupted mid-run (process death
// emulated by destroying the supervisor after two of four cells) and resumed
// on the same journal must rebuild exactly the table an uninterrupted run
// produces — including a fault-injected OOM-fallback cell. "Bit-identical"
// is literal: metrics compare with EXPECT_DOUBLE_EQ.
TEST(Supervisor, KillAndResumeRoundTripIsBitIdentical) {
  auto& tracker = DeviceTracker::Global();
  auto& inj = FaultInjector::Global();
  graph::Graph g = SmallGraph();
  graph::Splits s = graph::RandomSplits(g.n, 1);
  const std::vector<CellKey> grid = {
      {"small", "ppr", "fb", 1, ""},
      {"small", "chebyshev", "fb", 1, ""},
      {"small", "ppr", "fb", 2, ""},
      {"small", "chebyshev", "fb", 2, ""},
  };
  // Per-cell fault schedule, armed fresh before each cell so the injector's
  // operation counters do not depend on how many cells ran before it: the
  // (ppr, seed 2) cell always hits an early accelerator-allocation fault
  // (FB OOM -> MB fallback), every other cell runs clean.
  auto run_cell = [&](Supervisor* sup, const CellKey& key) {
    tracker.ResetAll();
    if (key.filter == "ppr" && key.seed == 2) {
      FaultPlan plan;
      plan.accel_alloc_fail_nth = 10;
      inj.Arm(plan);
    } else {
      inj.Disarm();
    }
    const CellRecord rec =
        sup->RunTraining(key, g, s, graph::Metric::kAccuracy, FastConfig());
    inj.Disarm();
    return rec;
  };

  // Reference: uninterrupted run on its own journal.
  const std::string ref_path = TempPath("roundtrip_ref.jsonl");
  std::remove(ref_path.c_str());
  std::vector<CellRecord> reference;
  {
    Supervisor sup("roundtrip", ref_path);
    for (const auto& key : grid) reference.push_back(run_cell(&sup, key));
  }

  // Interrupted: run two cells, then "die" without any cleanup.
  const std::string path = TempPath("roundtrip_killed.jsonl");
  std::remove(path.c_str());
  {
    Supervisor sup("roundtrip", path);
    run_cell(&sup, grid[0]);
    run_cell(&sup, grid[1]);
  }

  // Resume: a fresh supervisor on the same journal replays the first two
  // cells and runs the remaining two live.
  {
    Supervisor sup("roundtrip", path);
    std::vector<CellRecord> resumed;
    for (const auto& key : grid) resumed.push_back(run_cell(&sup, key));
    EXPECT_EQ(sup.resumed_cells(), 2u);

    ASSERT_EQ(resumed.size(), reference.size());
    for (size_t i = 0; i < grid.size(); ++i) {
      const CellRecord& a = reference[i];
      const CellRecord& b = resumed[i];
      EXPECT_EQ(b.key.Id(), a.key.Id());
      EXPECT_EQ(b.status, a.status) << b.key.Id();
      EXPECT_EQ(b.final_scheme, a.final_scheme) << b.key.Id();
      EXPECT_EQ(b.fell_back, a.fell_back) << b.key.Id();
      EXPECT_EQ(b.attempts, a.attempts) << b.key.Id();
      EXPECT_DOUBLE_EQ(b.val_metric, a.val_metric) << b.key.Id();
      EXPECT_DOUBLE_EQ(b.test_metric, a.test_metric) << b.key.Id();
      EXPECT_DOUBLE_EQ(b.train_loss, a.train_loss) << b.key.Id();
    }
    // The faulted cell really exercised the degradation path in both runs.
    EXPECT_TRUE(reference[2].fell_back);
    EXPECT_EQ(reference[2].final_scheme, "mb");
    EXPECT_TRUE(resumed[2].fell_back);
  }
  tracker.ResetAll();
  std::remove(ref_path.c_str());
  std::remove(path.c_str());
}

// --- RetryWithBackoff --------------------------------------------------------

/// Sum of the fixed schedule's four sleeps without jitter: 0.5 + 1 + 2 + 4.
constexpr double kNominalSleepMs = 7.5;

TEST(RetryWithBackoff, RetriesUnavailableUntilSuccess) {
  Rng rng(1);
  int calls = 0;
  RetryStats stats;
  const Status s = RetryWithBackoff(
      [&]() {
        ++calls;
        return calls < 3 ? Status::Unavailable("overloaded") : Status::OK();
      },
      &rng, &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
}

TEST(RetryWithBackoff, OnlyUnavailableIsRetryable) {
  // Every other code is terminal: one attempt, status returned unchanged.
  for (const Status& terminal :
       {Status::InvalidArgument("bad"), Status::DeadlineExceeded("late"),
        Status::IOError("disk"), Status::Internal("bug")}) {
    Rng rng(1);
    int calls = 0;
    RetryStats stats;
    const Status s = RetryWithBackoff(
        [&]() {
          ++calls;
          return terminal;
        },
        &rng, &stats);
    EXPECT_EQ(s.code(), terminal.code());
    EXPECT_EQ(calls, 1) << terminal.ToString();
    EXPECT_EQ(stats.slept_ms, 0.0) << terminal.ToString();
  }
}

TEST(RetryWithBackoff, ExhaustedAttemptsReturnLastUnavailable) {
  Rng rng(1);
  int calls = 0;
  RetryStats stats;
  const Status s = RetryWithBackoff(
      [&]() {
        ++calls;
        return Status::Unavailable("still overloaded");
      },
      &rng, &stats);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(stats.attempts, 5);
  // Four jittered sleeps, each within ±25% of its nominal delay.
  EXPECT_GE(stats.slept_ms, 0.75 * kNominalSleepMs);
  EXPECT_LE(stats.slept_ms, 1.25 * kNominalSleepMs);
}

TEST(BackoffDelay, GrowsGeometricallyAndCaps) {
  EXPECT_DOUBLE_EQ(BackoffDelayMs(1, nullptr), 0.5);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(2, nullptr), 1.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(3, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(4, nullptr), 4.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(7, nullptr), 32.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(8, nullptr), 50.0);  // capped
  EXPECT_DOUBLE_EQ(BackoffDelayMs(20, nullptr), 50.0);
}

TEST(BackoffDelay, JitterIsSeedDeterministicAndBounded) {
  Rng a(7);
  Rng b(7);
  for (int retry = 1; retry <= 16; ++retry) {
    const double nominal = BackoffDelayMs(retry, nullptr);
    const double da = BackoffDelayMs(retry, &a);
    const double db = BackoffDelayMs(retry, &b);
    EXPECT_DOUBLE_EQ(da, db);  // same seed, same jitter sequence
    EXPECT_GE(da, nominal * 0.75);
    EXPECT_LE(da, nominal * 1.25);
  }
}

}  // namespace
}  // namespace sgnn::runtime

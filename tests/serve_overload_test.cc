// Tests for serving overload semantics: typed admission-control sheds
// (queue depth), deadline shed-at-dequeue, shutdown that serves a full
// queue, the SLO hold-time controller
// (synthetic windows and in-engine convergence), LatencyHistogram interval
// diffs, RetryWithBackoff recovery of forced sheds, and a verified
// load-generator replay of an ON/OFF burst — the engine-level paths at 1
// and hw kernel threads.
//
// Determinism recipe used throughout: with `max_batch` larger than the
// queue budget and a hold (`max_wait_ms`) that outlives the test step, the
// dispatcher parks mid-hold with every admitted query still *in the queue*
// — so admission decisions, shutdown behavior, and deadline expiry are
// exercised without racing the dispatcher. The retry test needs the hold to
// end on cue instead, so it parks the dispatcher at an allocation latch
// (AllocLatch) that the test itself opens.

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "models/trainer.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "serve/metrics.h"
#include "runtime/retry.h"
#include "tensor/device.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace sgnn::serve {
namespace {

graph::Graph SmallGraph() {
  graph::GeneratorConfig c;
  c.n = 200;
  c.avg_degree = 6.0;
  c.num_classes = 4;
  c.homophily = 0.8;
  c.feature_dim = 12;
  c.noise = 2.0;
  c.seed = 5;
  return graph::GenerateSbm(c);
}

/// Trains a small mini-batch model for `epochs` epochs and builds its
/// checkpoint.
Checkpoint TrainCheckpoint(int epochs = 6) {
  graph::Graph g = SmallGraph();
  graph::Splits splits = graph::RandomSplits(g.n, 1);
  filters::FilterHyperParams hp;
  auto filter_or =
      filters::CreateFilter("chebyshev", 6, hp, g.features.cols());
  EXPECT_TRUE(filter_or.ok()) << filter_or.status().ToString();
  auto filter = filter_or.MoveValue();

  models::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.eval_every = 2;
  cfg.hidden = 16;
  cfg.phi0_layers = 0;
  cfg.phi1_layers = 2;
  cfg.batch_size = 64;
  cfg.export_model = true;
  models::TrainResult tr = models::TrainMiniBatch(
      g, splits, graph::Metric::kAccuracy, filter.get(), cfg);
  EXPECT_TRUE(tr.status.ok()) << tr.status.ToString();
  EXPECT_NE(tr.exported, nullptr);

  CheckpointMeta meta{"sbm_test", g.n, g.num_classes, cfg.rho, cfg.seed};
  auto ckpt_or = BuildCheckpoint("chebyshev", 6, hp, g.features.cols(),
                                 *tr.exported, meta);
  EXPECT_TRUE(ckpt_or.ok()) << ckpt_or.status().ToString();
  return ckpt_or.MoveValue();
}

/// The shared checkpoints — training once keeps the suite fast.
const Checkpoint& CkptV1() {
  static const Checkpoint* ckpt = new Checkpoint(TrainCheckpoint(4));
  return *ckpt;
}

const Checkpoint& CkptV2() {
  static const Checkpoint* ckpt = new Checkpoint(TrainCheckpoint(8));
  return *ckpt;
}

ServableModel Restore(const Checkpoint& ckpt) {
  auto model_or = RestoreModel(ckpt);
  EXPECT_TRUE(model_or.ok()) << model_or.status().ToString();
  return model_or.MoveValue();
}

std::vector<float> SingletonRow(Engine* engine, int64_t node) {
  Matrix one;
  const Status s = engine->ServeBatch({node}, &one);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::vector<float>(one.data(), one.data() + one.cols());
}

bool SameRow(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && !a.empty() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Engine pinned mid-hold: admitted queries stay queued for the test's
/// lifetime (hold far longer than any test step, batch can never fill).
EngineConfig PinnedConfig() {
  EngineConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_ms = 10000.0;
  return cfg;
}

/// The engine-path tests run at 1 and hw kernel threads: overload behavior
/// must not depend on intra-kernel parallelism.
std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1};
  if (parallel::NumThreads() > 1) counts.push_back(parallel::NumThreads());
  return counts;
}

class ThreadRestorer {
 public:
  ThreadRestorer() : saved_(parallel::NumThreads()) {}
  ~ThreadRestorer() { parallel::SetNumThreads(saved_); }

 private:
  int saved_;
};

// --- admission control -------------------------------------------------------

TEST(Admission, QueueDepthBudgetShedsTyped) {
  ThreadRestorer restore_threads;
  for (const int threads : ThreadCounts()) {
    parallel::SetNumThreads(threads);
    EngineConfig cfg = PinnedConfig();
    cfg.max_queue = 4;
    Engine engine(Restore(CkptV1()), cfg);
    engine.Start();

    std::vector<std::future<QueryResult>> admitted;
    for (int i = 0; i < 4; ++i) admitted.push_back(engine.Submit(i));
    for (int i = 0; i < 3; ++i) {
      QueryResult shed = engine.Submit(10 + i).get();
      EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable)
          << shed.status.ToString();
    }

    OverloadStats stats = engine.GetOverloadStats();
    EXPECT_EQ(stats.submitted, 7u);
    EXPECT_EQ(stats.admitted, 4u);
    EXPECT_EQ(stats.shed_queue_full, 3u);
    EXPECT_EQ(stats.shed_total(), 3u);
    EXPECT_NEAR(stats.ShedRate(), 3.0 / 7.0, 1e-12);

    engine.Stop();  // drains: every admitted future must carry logits
    for (auto& fut : admitted) {
      QueryResult r = fut.get();
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_FALSE(r.logits.empty());
    }
    stats = engine.GetOverloadStats();
    EXPECT_EQ(stats.served_ok, 4u);
    EXPECT_EQ(stats.served_late, 0u);
  }
}

TEST(Admission, OutOfRangeNodeFailsWithoutTouchingAdmission) {
  Engine engine(Restore(CkptV1()), PinnedConfig());
  engine.Start();
  QueryResult r = engine.Submit(engine.num_nodes()).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.GetOverloadStats().submitted, 0u);
  engine.Stop();
}

/// Parks every tracked allocation made off the constructing thread (the
/// engine's dispatcher) until Open(). The hook shares the latch state, so a
/// thread still leaving it never touches freed memory; the destructor opens
/// the latch and uninstalls the hook.
class AllocLatch {
 public:
  AllocLatch() : state_(std::make_shared<State>()) {
    DeviceTracker::Global().SetAllocFaultHook(
        [state = state_, owner = std::this_thread::get_id()](Device, size_t) {
          if (std::this_thread::get_id() == owner) return false;
          std::unique_lock<std::mutex> lock(state->mu);
          state->parked = true;
          state->cv.notify_all();
          state->cv.wait(lock, [&] { return state->open; });
          return false;
        });
  }
  ~AllocLatch() {
    Open();
    DeviceTracker::Global().SetAllocFaultHook(nullptr);
  }
  AllocLatch(const AllocLatch&) = delete;
  AllocLatch& operator=(const AllocLatch&) = delete;

  /// Blocks until another thread is parked at the latch.
  void WaitParked() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->parked; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->open = true;
    }
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool parked = false;
    bool open = false;
  };
  std::shared_ptr<State> state_;
};

TEST(Admission, ForcedShedsRecoverThroughRetryWithBackoff) {
  // The dispatcher parks at an allocation latch while serving the first
  // query, so the queue fills to its budget and the whole burst sheds. The
  // first retried query is shed once more; its next attempt opens the latch
  // and waits for every admitted query, so it finds room in the queue.
  constexpr int kBudget = 8;
  constexpr int kBurst = 24;
  EngineConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_ms = 0.0;
  cfg.max_queue = kBudget;
  Engine engine(Restore(CkptV1()), cfg);
  AllocLatch latch;
  engine.Start();
  const int64_t n = engine.num_nodes();
  std::vector<std::future<QueryResult>> admitted;
  admitted.push_back(engine.Submit(0));
  latch.WaitParked();
  for (int i = 0; i < kBudget; ++i) admitted.push_back(engine.Submit(i % n));
  std::vector<int64_t> shed_nodes;
  for (int i = 0; i < kBurst; ++i) {
    if (engine.Submit(i % n).get().status.code() ==
        StatusCode::kUnavailable) {
      shed_nodes.push_back(i % n);
    }
  }
  EXPECT_EQ(shed_nodes.size(), static_cast<size_t>(kBurst));

  Rng rng(11);
  std::vector<std::pair<int64_t, std::vector<float>>> recovered;
  int retried = 0;
  for (const int64_t node : shed_nodes) {
    QueryResult r;
    int attempts = 0;
    const Status s = runtime::RetryWithBackoff(
        [&] {
          if (attempts++ > 0) {
            latch.Open();
            for (auto& fut : admitted) fut.wait();
          }
          r = engine.Submit(node).get();
          return r.status;
        },
        &rng);
    EXPECT_TRUE(s.ok()) << "node " << node << ": " << s.ToString();
    if (attempts > 1) ++retried;
    recovered.emplace_back(node, std::move(r.logits));
  }
  EXPECT_EQ(retried, 1);
  latch.Open();
  for (auto& fut : admitted) EXPECT_TRUE(fut.get().status.ok());
  engine.Stop();

  const OverloadStats stats = engine.GetOverloadStats();
  EXPECT_EQ(stats.shed_queue_full, static_cast<uint64_t>(kBurst + 1));
  EXPECT_EQ(stats.served_ok, static_cast<uint64_t>(1 + kBudget + kBurst));
  for (const auto& [node, logits] : recovered) {
    EXPECT_TRUE(SameRow(logits, SingletonRow(&engine, node))) << node;
  }
}

// --- deadline propagation ----------------------------------------------------

TEST(Deadline, ExpiredQueriesShedAtDequeueWithoutKernelTime) {
  ThreadRestorer restore_threads;
  for (const int threads : ThreadCounts()) {
    parallel::SetNumThreads(threads);
    EngineConfig cfg;
    cfg.max_batch = 64;
    cfg.max_wait_ms = 120.0;  // hold comfortably outlives the 15ms deadline
    Engine engine(Restore(CkptV1()), cfg);
    engine.Start();

    std::vector<std::future<QueryResult>> doomed;
    for (int i = 0; i < 3; ++i) doomed.push_back(engine.Submit(i, 15.0));
    for (auto& fut : doomed) {
      QueryResult r = fut.get();
      EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
          << r.status.ToString();
      EXPECT_GE(r.latency_ms, 15.0);
    }
    engine.Stop();

    const OverloadStats stats = engine.GetOverloadStats();
    EXPECT_EQ(stats.shed_deadline, 3u);
    EXPECT_EQ(stats.served_ok, 0u);
    // Shed at *dequeue*: no batch was ever computed for them.
    EXPECT_EQ(engine.queries_served(), 0u);
    EXPECT_EQ(engine.batches_dispatched(), 0u);
  }
}

TEST(Deadline, PartitionServesLiveQueriesFromTheSameBatch) {
  // Two expired and two live queries dequeue together: the expired pair is
  // typed-shed, the live pair is served — and bit-identical to singleton.
  EngineConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_ms = 120.0;
  Engine engine(Restore(CkptV1()), cfg);
  engine.Start();
  auto doomed_a = engine.Submit(3, 15.0);
  auto doomed_b = engine.Submit(4, 15.0);
  auto live_a = engine.Submit(5, 0.0);
  auto live_b = engine.Submit(6, 0.0);

  EXPECT_EQ(doomed_a.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(doomed_b.get().status.code(), StatusCode::kDeadlineExceeded);
  QueryResult ra = live_a.get();
  QueryResult rb = live_b.get();
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  engine.Stop();

  EXPECT_TRUE(SameRow(ra.logits, SingletonRow(&engine, 5)));
  EXPECT_TRUE(SameRow(rb.logits, SingletonRow(&engine, 6)));
  const OverloadStats stats = engine.GetOverloadStats();
  EXPECT_EQ(stats.shed_deadline, 2u);
  EXPECT_EQ(stats.served_ok, 2u);
}

// --- shutdown semantics ------------------------------------------------------

TEST(Shutdown, StopDrainsFullQueue) {
  Engine engine(Restore(CkptV1()), PinnedConfig());
  engine.Start();
  std::vector<std::future<QueryResult>> queued;
  for (int i = 0; i < 16; ++i) queued.push_back(engine.Submit(i));
  engine.Stop();
  for (size_t i = 0; i < queued.size(); ++i) {
    QueryResult r = queued[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(
        SameRow(r.logits, SingletonRow(&engine, static_cast<int64_t>(i))));
  }
  EXPECT_EQ(engine.GetOverloadStats().served_ok, 16u);
}

TEST(Shutdown, DestructorSatisfiesQueuedFutures) {
  std::vector<std::future<QueryResult>> queued;
  {
    Engine engine(Restore(CkptV1()), PinnedConfig());
    engine.Start();
    for (int i = 0; i < 8; ++i) queued.push_back(engine.Submit(i));
  }  // destructor runs Stop, which serves the queue
  for (auto& fut : queued) {
    QueryResult r = fut.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.logits.empty());
  }
}

TEST(Shutdown, SubmitAfterStopIsTypedNotHung) {
  Engine engine(Restore(CkptV1()), PinnedConfig());
  engine.Start();
  engine.Stop();
  QueryResult r = engine.Submit(0).get();
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
}

TEST(Shutdown, ConcurrentStopsJoinExactlyOnce) {
  // Regression: two racing Stop() calls used to both reach
  // dispatcher_.join() (UB on the second). Exactly one caller owns the
  // join now; the rest wait for the shutdown to finish. Queued futures
  // still all resolve, and the engine restarts cleanly afterwards.
  Engine engine(Restore(CkptV1()), PinnedConfig());
  engine.Start();
  std::vector<std::future<QueryResult>> queued;
  for (int i = 0; i < 8; ++i) queued.push_back(engine.Submit(i));
  std::vector<std::thread> stoppers;
  stoppers.reserve(4);
  for (int i = 0; i < 4; ++i) stoppers.emplace_back([&] { engine.Stop(); });
  for (auto& t : stoppers) t.join();
  for (auto& fut : queued) {
    EXPECT_TRUE(fut.get().status.ok());
  }
  engine.Start();
  std::future<QueryResult> fut = engine.Submit(3);
  engine.Stop();  // drains the pinned hold immediately
  QueryResult r = fut.get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
}

// --- SLO controller ----------------------------------------------------------

TEST(SloController, DisabledKeepsFixedHold) {
  SloController ctl(/*target_p99_ms=*/0.0, 1.0);
  EXPECT_FALSE(ctl.enabled());
  EXPECT_DOUBLE_EQ(ctl.Update(1000.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ctl.Update(0.0, 0.0), 1.0);
}

TEST(SloController, ViolationShrinksToFloor) {
  SloController ctl(/*target_p99_ms=*/5.0, 1.0);
  double prev = ctl.wait_ms();
  for (int i = 0; i < 10; ++i) {
    const double next = ctl.Update(/*window_p99_ms=*/50.0, /*fill=*/1.0);
    EXPECT_LE(next, prev);  // violation always shrinks, even at full fill
    prev = next;
  }
  EXPECT_DOUBLE_EQ(ctl.wait_ms(), SloController::kMinWaitMs);
}

TEST(SloController, PressureGrowsBackToCeiling) {
  SloController ctl(/*target_p99_ms=*/5.0, 1.0);
  while (ctl.wait_ms() > SloController::kMinWaitMs) ctl.Update(50.0, 1.0);
  // In-SLO windows with batches filling: hold grows, clamped at the
  // configured ceiling (the original max_wait_ms).
  double prev = ctl.wait_ms();
  for (int i = 0; i < 32; ++i) {
    const double next = ctl.Update(/*window_p99_ms=*/1.0, /*fill=*/0.9);
    EXPECT_GE(next, prev);
    EXPECT_LE(next, 1.0);
    prev = next;
  }
  EXPECT_DOUBLE_EQ(ctl.wait_ms(), 1.0);
}

TEST(SloController, LightLoadShrinksTowardFloor) {
  SloController ctl(/*target_p99_ms=*/5.0, 1.0);
  // In-SLO but empty batches: waiting cannot fill them, so the hold decays.
  for (int i = 0; i < 10; ++i) ctl.Update(1.0, 0.05);
  EXPECT_DOUBLE_EQ(ctl.wait_ms(), SloController::kMinWaitMs);
}

TEST(SloController, EngineConvergesHoldToFloorUnderLightSerialLoad) {
  // End-to-end convergence: serial singleton submits keep batch fill at
  // 1/max_batch with p99 far inside the SLO, so each controller window
  // shrinks the live hold until it sits exactly on the floor.
  ThreadRestorer restore_threads;
  for (const int threads : ThreadCounts()) {
    parallel::SetNumThreads(threads);
    EngineConfig cfg;
    cfg.max_batch = 64;
    cfg.max_wait_ms = 1.0;
    cfg.target_p99_ms = 1000.0;  // never violated
    Engine engine(Restore(CkptV1()), cfg);
    engine.Start();
    EXPECT_DOUBLE_EQ(engine.GetOverloadStats().current_wait_ms, 1.0);
    for (int i = 0; i < 10 * SloController::kWindow; ++i) {
      QueryResult r = engine.Submit(i % engine.num_nodes()).get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
    engine.Stop();
    // 10 windows of shrink x0.5 from 1.0 clamps at the 0.02 floor.
    EXPECT_DOUBLE_EQ(engine.GetOverloadStats().current_wait_ms,
                     SloController::kMinWaitMs);
  }
}

// --- latency histogram intervals --------------------------------------------

TEST(LatencyHistogramDiff, DiffIsolatesTheNewWindow) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(1.0);
  const LatencyHistogram snapshot = hist;
  for (int i = 0; i < 50; ++i) hist.Record(100.0);

  const LatencyHistogram interval = hist.DiffFrom(snapshot);
  EXPECT_EQ(interval.count(), 50u);
  EXPECT_DOUBLE_EQ(interval.total_ms(), 50 * 100.0);
  // The cumulative p50 still sits in the 1ms era; the interval's p50 must
  // see only the new 100ms samples.
  EXPECT_LT(hist.PercentileMs(50), 2.0);
  EXPECT_GE(interval.PercentileMs(50), 100.0);
}

TEST(LatencyHistogramDiff, EmptyWindowIsEmpty) {
  LatencyHistogram hist;
  hist.Record(1.0);
  const LatencyHistogram interval = hist.DiffFrom(hist);
  EXPECT_EQ(interval.count(), 0u);
  EXPECT_DOUBLE_EQ(interval.PercentileMs(99), 0.0);
}

// --- load generator ----------------------------------------------------------

TEST(LoadGen, SchedulesAreSeedDeterministic) {
  LoadGenConfig load;
  load.process = ArrivalProcess::kOnOff;
  load.mean_qps = 5000.0;
  load.duration_ms = 100.0;
  load.seed = 9;
  const std::vector<Arrival> a = MakeSchedule(load, 200);
  const std::vector<Arrival> b = MakeSchedule(load, 200);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].at_ms, b[i].at_ms);
    EXPECT_EQ(a[i].node, b[i].node);
  }
  load.seed = 10;
  const std::vector<Arrival> c = MakeSchedule(load, 200);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < std::min(a.size(), c.size()); ++i) {
    differs = a[i].at_ms != c[i].at_ms || a[i].node != c[i].node;
  }
  EXPECT_TRUE(differs);  // different seed, different process draw
}

TEST(LoadGen, OnOffRateAlternatesAndDoublesTheMean) {
  LoadGenConfig load;
  load.process = ArrivalProcess::kOnOff;
  load.mean_qps = 1000.0;
  load.duration_ms = 200.0;
  EXPECT_DOUBLE_EQ(RateAtMs(load, 1.0), 5000.0);  // ON window
  EXPECT_DOUBLE_EQ(RateAtMs(load, 30.0), 0.0);    // OFF window is dry

  // 5x mean for 40% of each 50 ms period: the long-run rate is 2x mean.
  double sum = 0.0;
  const int steps = 1000;
  for (int i = 0; i < steps; ++i) {
    sum += RateAtMs(load, 50.0 * i / steps);
  }
  EXPECT_NEAR(sum / steps, 2000.0, 30.0);
}

TEST(LoadGen, BurstReplayWithRetryAccountsEveryQuery) {
  // A 5x ON/OFF burst against a 4-deep queue held 1 ms per batch sheds;
  // the retrying client wins back every shed, each offered query lands in
  // exactly one outcome, and every admitted answer equals singleton
  // serving.
  EngineConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_ms = 1.0;
  cfg.max_queue = 4;
  Engine engine(Restore(CkptV2()), cfg);
  Engine ref(Restore(CkptV2()), cfg);
  engine.Start();

  LoadGenConfig load;
  load.process = ArrivalProcess::kOnOff;
  load.mean_qps = 2000.0;
  load.duration_ms = 100.0;
  load.deadline_ms = 50.0;
  load.seed = 3;
  ReplayConfig replay;
  replay.retry = true;
  std::vector<std::pair<int64_t, std::vector<float>>> served;
  replay.on_result = [&](const Arrival& a, const QueryResult& r) {
    if (r.status.ok()) served.emplace_back(a.node, r.logits);
  };
  Rng rng(17);
  const ReplayStats stats = Replay(
      MakeSchedule(load, engine.num_nodes()),
      [&](int64_t node, double deadline_ms) {
        return engine.Submit(node, deadline_ms);
      },
      replay, &rng);
  engine.Stop();

  EXPECT_GT(stats.offered, 0u);
  EXPECT_EQ(stats.offered,
            stats.ok + stats.shed + stats.deadline_shed + stats.failed);
  EXPECT_EQ(stats.failed, 0u);
  // Retries run one at a time after the burst, so none can shed again.
  EXPECT_GT(stats.retried, 0u);
  EXPECT_EQ(stats.recovered, stats.retried);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(served.size(), stats.ok);
  for (const auto& [node, logits] : served) {
    EXPECT_TRUE(SameRow(logits, SingletonRow(&ref, node))) << node;
  }
}

}  // namespace
}  // namespace sgnn::serve

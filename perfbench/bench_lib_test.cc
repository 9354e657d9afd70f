#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

namespace perfbench {
namespace {

TEST(Percentiles, ExactOnKnownSamples) {
  // 1..100 shuffled: nearest rank returns the sample itself.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 99.9), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({0.25, 0.5, 7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(Percentiles, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Schedule, SameSeedSameSchedule) {
  const Skew skew;
  const auto a = PoissonSchedule(40000, 50.0, 60000, skew, 7);
  const auto b = PoissonSchedule(40000, 50.0, 60000, skew, 7);
  const auto c = PoissonSchedule(40000, 50.0, 60000, skew, 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ms, b[i].due_ms);
    EXPECT_EQ(a[i].node, b[i].node);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].node != c[i].node || a[i].due_ms != c[i].due_ms;
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, StreamsOfNearbySeedsDoNotOverlap) {
  // Plain seed * c + tag seeding makes seed s + 1's stream a shifted copy
  // of seed s's; hashed stream seeds share no draw in a long window.
  std::set<uint64_t> seen;
  for (uint64_t seed = 10; seed < 14; ++seed) {
    for (uint64_t tag = 0; tag < 3; ++tag) {
      SplitMix64 rng(StreamSeed(seed, tag));
      for (int i = 0; i < 2000; ++i) EXPECT_TRUE(seen.insert(rng.Next()).second);
    }
  }
}

TEST(Schedule, RateSkewAndOrder) {
  const Skew skew;
  const int64_t n = 60000;
  const auto s = PoissonSchedule(40000, 1000.0, n, skew, 3);
  // 40k expected arrivals; a Poisson count is within 1% with overwhelming
  // probability (sd = 200).
  EXPECT_NEAR(static_cast<double>(s.size()), 40000.0, 400.0);
  size_t hot = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    ASSERT_GE(s[i].node, 0);
    ASSERT_LT(s[i].node, n);
    if (i > 0) ASSERT_GE(s[i].due_ms, s[i - 1].due_ms);
    ASSERT_LT(s[i].due_ms, 1000.0);
    if (s[i].node < n / 10) ++hot;
  }
  // 80% hot draws plus 10% of the uniform 20%: 82% of queries.
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(s.size()), 0.82,
              0.01);
}

TEST(OpenLoop, LatencyCountsGeneratorStall) {
  // Queries due every 1 ms; the generator stalls for 5 ms before the
  // second one, then submits the backlog at once. The engine answers each
  // in 0.5 ms from submit.
  OpenLoopRecorder rec;
  rec.Record(0.0, 0.0, 0.5);
  rec.Record(1.0, 6.0, 0.5);
  rec.Record(2.0, 6.0, 0.5);
  rec.Record(3.0, 6.0, 0.5);
  rec.Record(7.0, 6.9, 0.5);  // early submit: no negative lateness
  const std::vector<double> late = {0.0, 5.0, 4.0, 3.0, 0.0};
  const std::vector<double> lat = {0.5, 5.5, 4.5, 3.5, 0.5};
  ASSERT_EQ(rec.lateness_ms().size(), late.size());
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_DOUBLE_EQ(rec.lateness_ms()[i], late[i]);
    EXPECT_DOUBLE_EQ(rec.latency_ms()[i], lat[i]);
  }
  // The engine-side view (0.5 ms each) would report a flat p99; measured
  // from due, the stall shows.
  EXPECT_DOUBLE_EQ(Percentile(rec.latency_ms(), 99), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(rec.lateness_ms(), 100), 5.0);
}

TEST(Checks, RejectPlantedLogitMismatch) {
  const float ref[4] = {0.25f, -1.0f, 3.5f, 0.0f};
  float same[4];
  std::memcpy(same, ref, sizeof(ref));
  EXPECT_TRUE(RowsByteEqual(ref, same, 4));

  float flipped[4];
  std::memcpy(flipped, ref, sizeof(ref));
  uint32_t bits = 0;
  std::memcpy(&bits, &flipped[2], sizeof(bits));
  bits ^= 1u;  // one ulp
  std::memcpy(&flipped[2], &bits, sizeof(bits));
  EXPECT_FALSE(RowsByteEqual(ref, flipped, 4));

  // -0.0 == 0.0 as floats, but not byte for byte.
  float neg_zero[4];
  std::memcpy(neg_zero, ref, sizeof(ref));
  neg_zero[3] = -0.0f;
  EXPECT_TRUE(neg_zero[3] == ref[3]);
  EXPECT_FALSE(RowsByteEqual(ref, neg_zero, 4));
}

TEST(Checks, Accounting) {
  EXPECT_TRUE(AccountingHolds(10, 7, 2, 1));
  EXPECT_FALSE(AccountingHolds(10, 7, 2, 0));
  EXPECT_FALSE(AccountingHolds(10, 9, 2, 0));
}

TEST(Digests, OrderAndContentSensitive) {
  const std::vector<int32_t> a = {1, 2, 3};
  const std::vector<int32_t> b = {1, 3, 2};
  EXPECT_EQ(Digest().AddVector(a).value(), Digest().AddVector(a).value());
  EXPECT_NE(Digest().AddVector(a).value(), Digest().AddVector(b).value());
  EXPECT_EQ(Digest().Hex(), "cbf29ce484222325");
}

TEST(Calibrator, ResidentBytesCoverEveryBuffer) {
  // rss_mb subtracts resident_bytes() from the process peak, so it must
  // count every buffer: the step work's tables, gather and GEMM operands,
  // and the memory work's 2^24-slot cycle.
  const CalibShape shape{3, 100, 8, 16, 32, 2};
  Calibrator calib(shape);
  const size_t floats = 3 * 100 * 8    // tables
                        + 3 * 32 * 8   // gathered rows
                        + 2 * 32 * 8   // summed batch, input gradient
                        + 2 * 8 * 16   // weights, weight gradient
                        + 2 * 32 * 16; // output gradient, output
  EXPECT_EQ(calib.resident_bytes(),
            floats * sizeof(float) + 2 * 32 * sizeof(int32_t) +
                (size_t{1} << 24) * sizeof(uint32_t));
  const CalibReading r = calib.Run();
  EXPECT_GT(r.step_ms, 0.0);
  EXPECT_GT(r.memory_ms, 0.0);
}

TEST(Calibrator, WakeHandoffsHoldAtLeastTheHold) {
  // The worker holds until hold_ms after each handoff was sent, and a send
  // is never before its due time, so no due-to-done time is shorter.
  WakeCalibrator wake(0.2, 16);
  EXPECT_GE(wake.RunMs(), 0.2);
  EXPECT_GE(wake.RunMs(), 0.2);  // reusable across runs
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t;
  const int epoch = t.Add("epoch", 0, 10'000'000, -1);     // 10 ms
  const int fwd = t.Add("forward", 1'000'000, 4'000'000, epoch);
  t.Add("spmm", 1'500'000, 3'500'000, fwd);                // 2 ms
  t.Add("loss", 5'000'000, 6'000'000, epoch);              // 1 ms
  EXPECT_DOUBLE_EQ(t.TotalMs(epoch), 10.0);
  EXPECT_DOUBLE_EQ(t.SelfMs(epoch), 6.0);
  EXPECT_DOUBLE_EQ(t.SelfMs(fwd), 1.0);
  EXPECT_DOUBLE_EQ(t.SelfMsByName("spmm"), 2.0);
  EXPECT_DOUBLE_EQ(t.SelfMsByName("forward", epoch), 1.0);
  const int other = t.Add("epoch", 20'000'000, 21'000'000, -1);
  t.Add("loss", 20'000'000, 20'500'000, other);
  EXPECT_DOUBLE_EQ(t.SelfMsByName("loss", epoch), 1.0);
  EXPECT_DOUBLE_EQ(t.SelfMsByName("loss"), 1.5);
}

TEST(Tracer, ScopesNest) {
  Tracer t;
  {
    Tracer::Scope outer(&t, "outer");
    Tracer::Scope inner(&t, "inner");
  }
  Tracer::Scope disabled(nullptr, "ignored");
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_LE(t.spans()[1].end_ns, t.spans()[0].end_ns);
}

TEST(Result, LineShapeAndNonFiniteValues) {
  std::map<std::string, Metric> m;
  m["setup_s"] = {0.8127, "s"};
  EXPECT_EQ(ResultLine(true, 3, 0, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.81269999999999998, "
            "\"unit\": \"s\"}}}");
  m["bad"] = {std::nan(""), "ms"};
  EXPECT_NE(ResultLine(true, 1, 0, m).find("\"correct\": false"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench

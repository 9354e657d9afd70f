#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "eval/table.h"
#include "runtime/retry.h"

namespace sgnn::serve {
namespace {

// ON/OFF shape: ON windows at kBurstMultiplier x mean for the first
// kOnFraction of every kPeriodMs period, dry OFF windows in between.
constexpr double kBurstMultiplier = 5.0;
constexpr double kOnFraction = 0.4;
constexpr double kPeriodMs = 50.0;

// Query mix: kHotFraction of queries land on the hottest kHotNodeFraction
// of nodes.
constexpr double kHotFraction = 0.8;
constexpr double kHotNodeFraction = 0.1;

/// Diurnal shape: 24 "hours" with an overnight trough and an evening peak,
/// mean 1 by construction after normalization.
const std::vector<double>& DiurnalProfile() {
  static const std::vector<double> kProfile = {
      0.30, 0.20, 0.15, 0.12, 0.12, 0.18, 0.35, 0.60,  // night -> morning
      0.90, 1.10, 1.25, 1.35, 1.40, 1.35, 1.30, 1.35,  // working day
      1.45, 1.60, 1.80, 1.90, 1.70, 1.30, 0.85, 0.50,  // evening peak
  };
  return kProfile;
}

double ProfileMean(const std::vector<double>& profile) {
  double sum = 0.0;
  for (const double v : profile) sum += v;
  return sum / static_cast<double>(profile.size());
}

/// Peak rate over the schedule — the thinning envelope λ_max.
double PeakRate(const LoadGenConfig& config) {
  switch (config.process) {
    case ArrivalProcess::kPoisson:
      return config.mean_qps;
    case ArrivalProcess::kOnOff:
      return config.mean_qps * kBurstMultiplier;
    case ArrivalProcess::kDiurnal: {
      const std::vector<double>& profile = DiurnalProfile();
      const double peak = *std::max_element(profile.begin(), profile.end());
      return config.mean_qps * peak / ProfileMean(profile);
    }
  }
  return config.mean_qps;
}

}  // namespace

double RateAtMs(const LoadGenConfig& config, double t_ms) {
  switch (config.process) {
    case ArrivalProcess::kPoisson:
      return config.mean_qps;
    case ArrivalProcess::kOnOff: {
      const double phase = std::fmod(t_ms, kPeriodMs) / kPeriodMs;
      return phase < kOnFraction ? config.mean_qps * kBurstMultiplier : 0.0;
    }
    case ArrivalProcess::kDiurnal: {
      if (config.duration_ms <= 0.0) return config.mean_qps;
      const std::vector<double>& profile = DiurnalProfile();
      const double pos = std::min(
          std::max(t_ms / config.duration_ms, 0.0), 1.0 - 1e-12);
      const auto bin = static_cast<size_t>(
          pos * static_cast<double>(profile.size()));
      return config.mean_qps * profile[bin] / ProfileMean(profile);
    }
  }
  return config.mean_qps;
}

std::vector<Arrival> MakeSchedule(const LoadGenConfig& config,
                                  int64_t num_nodes) {
  std::vector<Arrival> schedule;
  if (config.mean_qps <= 0.0 || config.duration_ms <= 0.0 || num_nodes <= 0) {
    return schedule;
  }
  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 101);
  const double lambda_max = PeakRate(config);  // arrivals per second
  const auto hot = static_cast<uint64_t>(std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(num_nodes) *
                              kHotNodeFraction)));
  double t_ms = 0.0;
  for (;;) {
    // Thinning (Lewis & Shedler): homogeneous exponential gaps at the peak
    // rate, accepted with probability λ(t)/λ_max — exact for any
    // piecewise-constant λ, and deterministic through the seeded Rng.
    const double u = std::max(1e-12, rng.Uniform());
    t_ms += -std::log(u) / lambda_max * 1e3;
    if (t_ms >= config.duration_ms) break;
    if (rng.Uniform() * lambda_max > RateAtMs(config, t_ms)) continue;
    Arrival a;
    a.at_ms = t_ms;
    a.node = static_cast<int64_t>(
        rng.Bernoulli(kHotFraction)
            ? rng.UniformInt(hot)
            : rng.UniformInt(static_cast<uint64_t>(num_nodes)));
    a.deadline_ms = config.deadline_ms;
    schedule.push_back(a);
  }
  return schedule;
}

double ReplayStats::GoodputQps() const {
  if (wall_ms <= 0.0) return 0.0;
  return static_cast<double>(ok_in_deadline) / (wall_ms / 1e3);
}

double ReplayStats::ShedRate() const {
  if (offered == 0) return 0.0;
  return static_cast<double>(shed + deadline_shed) /
         static_cast<double>(offered);
}

ReplayStats Replay(const std::vector<Arrival>& schedule,
                   const SubmitFn& submit, const ReplayConfig& config,
                   Rng* rng) {
  ReplayStats stats;
  stats.offered = schedule.size();
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(schedule.size());

  // Pace the arrival process in real time. Submission never blocks on a
  // result, so the engine sees the schedule's instantaneous rate.
  eval::Stopwatch wall;
  for (const Arrival& a : schedule) {
    const double lead = a.at_ms - wall.ElapsedMs();
    if (lead > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(lead));
    }
    futures.push_back(submit(a.node, a.deadline_ms));
  }
  std::vector<QueryResult> results;
  results.reserve(futures.size());
  for (auto& fut : futures) results.push_back(fut.get());

  for (size_t i = 0; i < results.size(); ++i) {
    QueryResult r = std::move(results[i]);
    if (r.status.code() == StatusCode::kUnavailable && config.retry) {
      // The well-behaved client: back off and re-submit. Synchronous by
      // design — a shed query's retries should themselves be paced, not
      // stack on top of the burst that shed them.
      ++stats.retried;
      const Arrival& a = schedule[i];
      const Status final_status = runtime::RetryWithBackoff(
          [&]() {
            QueryResult again = submit(a.node, a.deadline_ms).get();
            const Status st = again.status;
            if (st.ok()) r = std::move(again);
            return st;
          },
          rng);
      if (final_status.ok()) ++stats.recovered;
      if (!final_status.ok()) r.status = final_status;
    }
    if (r.status.ok()) {
      ++stats.ok;
      stats.latency.Record(r.latency_ms);
      const double deadline = schedule[i].deadline_ms;
      if (deadline <= 0.0 || r.latency_ms <= deadline) ++stats.ok_in_deadline;
    } else if (r.status.code() == StatusCode::kUnavailable) {
      ++stats.shed;
    } else if (r.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats.deadline_shed;
    } else {
      ++stats.failed;
    }
    if (config.on_result) config.on_result(schedule[i], r);
  }
  // Goodput's denominator includes retry pacing: a recovered query was only
  // "good" because the client spent that extra wall time on it.
  stats.wall_ms = wall.ElapsedMs();
  return stats;
}

}  // namespace sgnn::serve

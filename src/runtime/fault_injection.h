// Deterministic fault injection for the simulated accelerator.
//
// The paper's tables contain cells that legitimately fail — "(OOM)" in
// Tables 9/11 — but real capacity is the only way the seed harness could
// reach those paths. This layer hooks DeviceTracker::OnAlloc so OOM
// handling is testable on demand: faults are scripted (fail exactly the Nth
// allocation) or probabilistic (seeded, so a plan replays identically), and
// never terminate the process — they surface as the same latched-OOM flag
// the organic failures produce.

#ifndef SGNN_RUNTIME_FAULT_INJECTION_H_
#define SGNN_RUNTIME_FAULT_INJECTION_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "core/thread_annotations.h"
#include "tensor/rng.h"
#include "tensor/status.h"

namespace sgnn::runtime {

/// What to break, and when. All counters are 1-based and count operations
/// observed since Arm(); 0 disables the corresponding fault.
struct FaultPlan {
  /// Fail exactly the Nth accelerator allocation (one-shot).
  uint64_t accel_alloc_fail_nth = 0;
  /// Fail each accelerator allocation independently with this probability.
  double accel_alloc_fail_prob = 0.0;
  /// Seed for the probabilistic draws; same plan + seed => same faults.
  uint64_t seed = 1;
};

/// Parses "accel_nth=120,accel_prob=0.01,seed=7". Unknown keys and values
/// that are not wholly a number (a sign on a count, a non-finite
/// probability) are rejected with InvalidArgument naming the key, and a
/// probability outside [0, 1] with InvalidArgument. Used by
/// SPECTRAL_FAULT_PLAN.
[[nodiscard]] Result<FaultPlan> ParseFaultPlan(const std::string& text);

/// Process-wide injector. Arm() installs the DeviceTracker hook; Disarm()
/// removes it. Thread-safe.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Installs the hook and resets counters. Re-arming replaces the plan.
  void Arm(const FaultPlan& plan);

  /// Arms from the SPECTRAL_FAULT_PLAN environment variable. Returns true
  /// when a plan was found and armed; malformed plans are reported on
  /// stderr and ignored (a bad env var must not kill a bench).
  bool ArmFromEnv();

  /// Uninstalls the hook.
  void Disarm();

  bool armed() const;

  /// Operations observed / faults injected since the last Arm().
  uint64_t observed_accel_allocs() const;
  uint64_t injected_alloc_faults() const;

 private:
  FaultInjector() = default;

  bool OnAccelAlloc();

  mutable std::mutex mu_;
  bool armed_ SGNN_GUARDED_BY(mu_) = false;
  FaultPlan plan_ SGNN_GUARDED_BY(mu_);
  Rng rng_ SGNN_GUARDED_BY(mu_){1};
  uint64_t accel_allocs_ SGNN_GUARDED_BY(mu_) = 0;
  uint64_t alloc_faults_ SGNN_GUARDED_BY(mu_) = 0;
};

}  // namespace sgnn::runtime

#endif  // SGNN_RUNTIME_FAULT_INJECTION_H_

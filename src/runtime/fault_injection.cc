#include "runtime/fault_injection.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tensor/device.h"

namespace sgnn::runtime {

namespace {

/// Parses all of `value` as a decimal count: digits only (no sign, no
/// space, nothing after), and no overflow.
bool ParseCount(const std::string& value, uint64_t* out) {
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = v;
  return true;
}

/// Parses all of `value` as a finite number; the [0, 1] range is checked
/// once the whole plan is read.
bool ParseProbability(const std::string& value, double* out) {
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0]))) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

Result<FaultPlan> ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault plan entry missing '=': " + entry);
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    bool parsed = false;
    if (key == "accel_nth") {
      parsed = ParseCount(value, &plan.accel_alloc_fail_nth);
    } else if (key == "accel_prob") {
      parsed = ParseProbability(value, &plan.accel_alloc_fail_prob);
    } else if (key == "seed") {
      parsed = ParseCount(value, &plan.seed);
    } else {
      return Status::InvalidArgument("unknown fault plan key: " + key);
    }
    if (!parsed) {
      return Status::InvalidArgument("malformed fault plan value for " + key +
                                     ": '" + value + "'");
    }
  }
  if (plan.accel_alloc_fail_prob < 0.0 || plan.accel_alloc_fail_prob > 1.0) {
    return Status::InvalidArgument("fault probabilities must be in [0, 1]");
  }
  return plan;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = plan;
    rng_ = Rng(plan.seed);
    accel_allocs_ = alloc_faults_ = 0;
    armed_ = true;
  }
  DeviceTracker::Global().SetAllocFaultHook(
      [this](Device device, size_t /*bytes*/) {
        if (device != Device::kAccel) return false;
        return OnAccelAlloc();
      });
}

bool FaultInjector::ArmFromEnv() {
  const char* env = std::getenv("SPECTRAL_FAULT_PLAN");
  if (env == nullptr || env[0] == '\0') return false;
  auto plan = ParseFaultPlan(env);
  if (!plan.ok()) {
    std::fprintf(stderr, "SPECTRAL_FAULT_PLAN ignored: %s\n",
                 plan.status().ToString().c_str());
    return false;
  }
  Arm(plan.value());
  return true;
}

void FaultInjector::Disarm() {
  DeviceTracker::Global().SetAllocFaultHook(nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

uint64_t FaultInjector::observed_accel_allocs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accel_allocs_;
}

uint64_t FaultInjector::injected_alloc_faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alloc_faults_;
}

bool FaultInjector::OnAccelAlloc() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_) return false;
  ++accel_allocs_;
  bool fail = plan_.accel_alloc_fail_nth != 0 &&
              accel_allocs_ == plan_.accel_alloc_fail_nth;
  if (!fail && plan_.accel_alloc_fail_prob > 0.0) {
    fail = rng_.Bernoulli(plan_.accel_alloc_fail_prob);
  }
  if (fail) ++alloc_faults_;
  return fail;
}

}  // namespace sgnn::runtime

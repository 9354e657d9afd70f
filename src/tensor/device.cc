#include "tensor/device.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sgnn {

DeviceTracker& DeviceTracker::Global() {
  static DeviceTracker tracker;
  return tracker;
}

void DeviceTracker::OnAlloc(Device device, size_t bytes) {
  // The hook runs outside the lock so it may consult the tracker (and so a
  // slow hook cannot serialize unrelated allocations).
  AllocFaultHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = alloc_fault_hook_;
  }
  const bool injected = hook && hook(device, bytes);
  std::lock_guard<std::mutex> lock(mu_);
  const int i = static_cast<int>(device);
  live_[i] += bytes;
  peak_[i] = std::max(peak_[i], live_[i]);
  const bool over_capacity =
      device == Device::kAccel &&
      ((accel_capacity_ != 0 && live_[i] > accel_capacity_) || injected);
  if (over_capacity && !accel_oom_) {
    accel_oom_ = true;
    ++oom_events_;
  }
}

void DeviceTracker::OnFree(Device device, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const int i = static_cast<int>(device);
  live_[i] = bytes <= live_[i] ? live_[i] - bytes : 0;
}

void DeviceTracker::set_accel_capacity(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  accel_capacity_ = bytes;
}

size_t DeviceTracker::accel_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accel_capacity_;
}

size_t DeviceTracker::live_bytes(Device device) const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_[static_cast<int>(device)];
}

size_t DeviceTracker::peak_bytes(Device device) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_[static_cast<int>(device)];
}

bool DeviceTracker::accel_oom() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accel_oom_;
}

size_t DeviceTracker::oom_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return oom_events_;
}

void DeviceTracker::SetAllocFaultHook(AllocFaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  alloc_fault_hook_ = std::move(hook);
}

void DeviceTracker::ResetPeak() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_[0] = live_[0];
  peak_[1] = live_[1];
}

void DeviceTracker::ClearOom() {
  std::lock_guard<std::mutex> lock(mu_);
  accel_oom_ = false;
}

void DeviceTracker::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  live_[0] = live_[1] = 0;
  peak_[0] = peak_[1] = 0;
  accel_oom_ = false;
  oom_events_ = 0;
}

DeviceBytes::DeviceBytes(Device device, size_t bytes)
    : device_(device), bytes_(bytes) {
  Allocate();
}

DeviceBytes::DeviceBytes(const DeviceBytes& other)
    : device_(other.device_), bytes_(other.bytes_) {
  Allocate();
}

DeviceBytes& DeviceBytes::operator=(const DeviceBytes& other) {
  if (this == &other) return *this;
  Release();
  device_ = other.device_;
  bytes_ = other.bytes_;
  Allocate();
  return *this;
}

DeviceBytes::DeviceBytes(DeviceBytes&& other) noexcept
    : device_(other.device_), bytes_(std::exchange(other.bytes_, 0)) {}

DeviceBytes& DeviceBytes::operator=(DeviceBytes&& other) noexcept {
  if (this == &other) return *this;
  Release();
  device_ = other.device_;
  bytes_ = std::exchange(other.bytes_, 0);
  return *this;
}

DeviceBytes::~DeviceBytes() { Release(); }

void DeviceBytes::MoveTo(Device device) {
  if (device == device_) return;
  Release();
  device_ = device;
  Allocate();
}

void DeviceBytes::Allocate() const {
  if (bytes_ > 0) DeviceTracker::Global().OnAlloc(device_, bytes_);
}

void DeviceBytes::Release() const {
  if (bytes_ > 0) DeviceTracker::Global().OnFree(device_, bytes_);
}

std::string FormatBytes(size_t bytes) {
  char buf[32];
  const double b = static_cast<double>(bytes);
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

}  // namespace sgnn

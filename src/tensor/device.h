// Simulated device model.
//
// The paper evaluates GPU-vs-RAM memory placement (full-batch keeps the graph
// and all representations on the GPU; decoupled mini-batch keeps them in host
// RAM and streams batches). This repo has no GPU, so we reproduce the *memory
// semantics*: every tensor holds a DeviceBytes that reports its bytes on a
// Device to a global DeviceTracker, which accounts live and peak bytes per
// device, and allocations on the simulated accelerator beyond a configurable
// capacity latch an OOM flag that training pipelines surface exactly where
// the paper reports "(OOM)".
//
// Timing is measured on the real CPU; a per-device speed factor lets the
// Figure-5 hardware study replay measured stage times under a different
// CPU/GPU balance.

#ifndef SGNN_TENSOR_DEVICE_H_
#define SGNN_TENSOR_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "core/thread_annotations.h"

namespace sgnn {

/// Placement of a tensor in the simulated two-device machine.
enum class Device {
  kHost = 0,   ///< CPU / RAM (unbounded in the simulation).
  kAccel = 1,  ///< Simulated accelerator ("GPU" in paper tables).
};

/// Global byte accounting for the simulated machine. Thread-safe.
class DeviceTracker {
 public:
  /// The process-wide tracker instance.
  static DeviceTracker& Global();

  /// Records an allocation of `bytes` on `device`. Library code reports
  /// through DeviceBytes, which pairs each OnAlloc with its OnFree.
  void OnAlloc(Device device, size_t bytes);

  /// Records a release of `bytes` on `device`.
  void OnFree(Device device, size_t bytes);

  /// Sets the simulated accelerator capacity in bytes (0 = unlimited).
  void set_accel_capacity(size_t bytes);
  size_t accel_capacity() const;

  /// Live bytes currently resident on `device`.
  size_t live_bytes(Device device) const;

  /// High-water mark since the last ResetPeak().
  size_t peak_bytes(Device device) const;

  /// True once any accelerator allocation exceeded capacity. Latched until
  /// ClearOom().
  bool accel_oom() const;

  /// Number of capacity crossings: incremented only when an allocation
  /// latches the OOM flag while it is clear, so a burst of over-capacity
  /// allocations counts as one event.
  size_t oom_events() const;

  /// Fault-injection hook (see runtime/fault_injection.h). Called for every
  /// allocation, outside the tracker lock; returning true for an accelerator
  /// allocation latches the OOM flag exactly as a capacity overflow would.
  /// Pass nullptr to uninstall.
  using AllocFaultHook = std::function<bool(Device device, size_t bytes)>;
  void SetAllocFaultHook(AllocFaultHook hook);

  /// Resets peak counters to the current live values.
  void ResetPeak();

  /// Clears the latched OOM flag.
  void ClearOom();

  /// Resets all counters and the OOM flag (test isolation helper).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  size_t live_[2] SGNN_GUARDED_BY(mu_) = {0, 0};
  size_t peak_[2] SGNN_GUARDED_BY(mu_) = {0, 0};
  size_t accel_capacity_ SGNN_GUARDED_BY(mu_) = 0;
  bool accel_oom_ SGNN_GUARDED_BY(mu_) = false;
  size_t oom_events_ SGNN_GUARDED_BY(mu_) = 0;
  AllocFaultHook alloc_fault_hook_ SGNN_GUARDED_BY(mu_);
};

/// The one owner of a buffer's registration with DeviceTracker::Global().
/// Construction and copy register `bytes` on `device`; a move hands the
/// registration over, leaving the source on its device with 0 bytes;
/// MoveTo re-homes the bytes; destruction releases exactly what was
/// registered. A 0-byte count never reaches the tracker or its fault hook.
///
/// Tensor types hold one as their last data member, so their defaulted
/// copy-assign copies the data first and then frees the old bytes before
/// registering the new.
class DeviceBytes {
 public:
  DeviceBytes() = default;
  DeviceBytes(Device device, size_t bytes);
  DeviceBytes(const DeviceBytes& other);
  DeviceBytes& operator=(const DeviceBytes& other);
  DeviceBytes(DeviceBytes&& other) noexcept;
  DeviceBytes& operator=(DeviceBytes&& other) noexcept;
  ~DeviceBytes();

  Device device() const { return device_; }
  size_t bytes() const { return bytes_; }

  /// Re-homes the bytes onto `device` (simulated transfer): released on the
  /// old device, then registered on the new one. No-op when already there.
  void MoveTo(Device device);

 private:
  void Allocate() const;
  void Release() const;

  Device device_ = Device::kHost;
  size_t bytes_ = 0;
};

/// Formats a byte count as "1.23 GB" / "45.6 MB" for table output.
std::string FormatBytes(size_t bytes);

}  // namespace sgnn

#endif  // SGNN_TENSOR_DEVICE_H_

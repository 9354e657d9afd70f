// Tiered per-node embedding cache for the serving engine.
//
// A query's expensive input is its term bundle: the K+1 (or bank-concatenated)
// per-hop rows gathered from the precomputed term matrices, assembled as one
// small (num_terms x F) matrix per node. The cache keeps hot bundles resident
// in two LRU tiers:
//
//   * accel tier — bundles pinned on Device::kAccel, inside a byte budget the
//     cache enforces itself (every resident Matrix is also visible to the
//     global DeviceTracker, so tests can cross-check the budget against
//     tracker live bytes). A hit here skips both the host-side row gather and
//     the simulated host→accel transfer.
//   * host tier — bundles demoted from the accel tier when it overflows. A
//     hit skips the gather; the bundle is promoted back to the accel tier
//     (evicting colder entries) since it just proved hot.
//
// Overflowing the host tier evicts for good; a later query on that node is a
// miss and re-gathers. Budgets of 0 disable a tier. The cache is NOT
// thread-safe — the engine serializes all serving under one lock because the
// filter's CombineTerms caches state internally. That contract is enforced
// statically: the engine's cache_ member is SGNN_GUARDED_BY(serve_mu_)
// (core/thread_annotations.h), so any new unlocked access fails the
// lock-discipline lint gate (docs/LINT.md, "Dataflow rules") rather than
// becoming a latent race.

#ifndef SGNN_SERVE_CACHE_H_
#define SGNN_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "quant/quantize.h"
#include "tensor/matrix.h"

namespace sgnn::serve {

/// A resident term bundle in either precision: fp32 (a plain Matrix) or a
/// quantized payload (int8/fp16, scale-less — per-node bundles share the
/// per-term channel scales owned by the ServableModel, so the cache pays
/// only payload bytes per node). Exactly one representation is populated.
struct Bundle {
  Bundle() = default;
  explicit Bundle(Matrix fp_bundle) : fp(std::move(fp_bundle)) {}
  explicit Bundle(quant::QuantizedMatrix q_bundle) : q(std::move(q_bundle)) {}

  Matrix fp;
  quant::QuantizedMatrix q;

  bool quantized() const { return q.size() > 0; }
  size_t bytes() const { return quantized() ? q.bytes() : fp.bytes(); }
  void MoveToDevice(Device d) {
    if (quantized()) {
      q.MoveToDevice(d);
    } else {
      fp.MoveToDevice(d);
    }
  }
};

/// Byte budgets for the two cache tiers (0 disables a tier).
struct CacheConfig {
  size_t accel_budget_bytes = 0;
  size_t host_budget_bytes = 0;
};

/// Monotonic counters; exposed raw so benches can diff across sweep points.
struct CacheStats {
  uint64_t accel_hits = 0;  ///< found pinned on the accelerator
  uint64_t host_hits = 0;   ///< found in the demoted host tier
  uint64_t misses = 0;      ///< not cached; caller must gather
  uint64_t demotions = 0;   ///< accel → host moves (accel budget pressure)
  uint64_t evictions = 0;   ///< bundles dropped entirely (host overflow)

  uint64_t lookups() const { return accel_hits + host_hits + misses; }
  /// Fraction of lookups answered from either tier (0 when no lookups).
  double HitRate() const;
};

/// Two-tier LRU over per-node term bundles (fp32 or quantized). Keys are
/// node ids.
class TieredCache {
 public:
  explicit TieredCache(CacheConfig config) : config_(config) {}

  /// Looks up `node`, updating recency. A host-tier hit promotes the bundle
  /// back to the accel tier. Returns the resident bundle, or nullptr on a
  /// miss. The pointer is valid until the next Get or Put.
  const Bundle* Get(int64_t node);

  /// Caches `bundle` (any device; the cache re-homes it). Entries land on
  /// the accel tier when it can ever hold them, demoting LRU entries to
  /// host; bundles larger than the accel budget go straight to the host
  /// tier; bundles no tier can hold are dropped (counted as an eviction).
  /// `node` must not already be resident (engine only Puts after a miss).
  void Put(int64_t node, Bundle bundle);

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }
  size_t accel_bytes() const { return accel_bytes_; }
  size_t host_bytes() const { return host_bytes_; }
  size_t entries() const { return index_.size(); }

 private:
  struct Entry {
    int64_t node = 0;
    Bundle bundle;
  };
  using List = std::list<Entry>;

  /// Moves LRU accel entries to the host tier until `need` bytes fit.
  void MakeAccelRoom(size_t need);
  /// Drops LRU host entries until `need` bytes fit in the host budget.
  void MakeHostRoom(size_t need);
  /// Inserts at host MRU, evicting as needed; drops oversized bundles.
  void InsertHost(Entry entry);

  CacheConfig config_;
  CacheStats stats_;
  List accel_;  ///< MRU at front
  List host_;   ///< MRU at front
  struct Slot {
    bool on_accel = false;
    List::iterator it;
  };
  std::unordered_map<int64_t, Slot> index_;
  size_t accel_bytes_ = 0;
  size_t host_bytes_ = 0;
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_CACHE_H_

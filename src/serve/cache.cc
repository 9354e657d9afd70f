#include "serve/cache.h"

#include <utility>

namespace sgnn::serve {

double CacheStats::HitRate() const {
  const uint64_t total = lookups();
  if (total == 0) return 0.0;
  return static_cast<double>(accel_hits + host_hits) /
         static_cast<double>(total);
}

const Bundle* TieredCache::Get(int64_t node) {
  auto it = index_.find(node);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  Slot& slot = it->second;
  if (slot.on_accel) {
    ++stats_.accel_hits;
    accel_.splice(accel_.begin(), accel_, slot.it);
    return &slot.it->bundle;
  }
  ++stats_.host_hits;
  // Promote: the bundle just proved hot. Pull it off the host tier first so
  // MakeAccelRoom's demotions cannot collide with it.
  Entry entry = std::move(*slot.it);
  const size_t need = entry.bundle.bytes();
  host_bytes_ -= need;
  host_.erase(slot.it);
  if (need <= config_.accel_budget_bytes) {
    MakeAccelRoom(need);
    entry.bundle.MoveToDevice(Device::kAccel);
    accel_bytes_ += need;
    accel_.push_front(std::move(entry));
    slot.on_accel = true;
    slot.it = accel_.begin();
  } else {
    // Too big to ever pin: stays a host entry, just bumped to MRU.
    host_bytes_ += need;
    host_.push_front(std::move(entry));
    slot.on_accel = false;
    slot.it = host_.begin();
  }
  return &slot.it->bundle;
}

void TieredCache::Put(int64_t node, Bundle bundle) {
  if (index_.count(node) != 0) return;  // engine contract: Put after miss
  const size_t need = bundle.bytes();
  Entry entry{node, std::move(bundle)};
  if (need <= config_.accel_budget_bytes) {
    MakeAccelRoom(need);
    entry.bundle.MoveToDevice(Device::kAccel);
    accel_bytes_ += need;
    accel_.push_front(std::move(entry));
    index_[node] = Slot{true, accel_.begin()};
    return;
  }
  if (need <= config_.host_budget_bytes) {
    InsertHost(std::move(entry));
    return;
  }
  // No tier can ever hold it; count the drop so a mis-sized budget shows up
  // in the counters instead of as a silently cold cache.
  ++stats_.evictions;
}

void TieredCache::MakeAccelRoom(size_t need) {
  while (!accel_.empty() && accel_bytes_ + need > config_.accel_budget_bytes) {
    Entry victim = std::move(accel_.back());
    accel_.pop_back();
    const size_t victim_bytes = victim.bundle.bytes();
    accel_bytes_ -= victim_bytes;
    ++stats_.demotions;
    victim.bundle.MoveToDevice(Device::kHost);
    const int64_t victim_node = victim.node;
    if (victim_bytes <= config_.host_budget_bytes) {
      InsertHost(std::move(victim));
    } else {
      index_.erase(victim_node);
      ++stats_.evictions;
    }
  }
}

void TieredCache::MakeHostRoom(size_t need) {
  while (!host_.empty() && host_bytes_ + need > config_.host_budget_bytes) {
    const Entry& victim = host_.back();
    const size_t victim_bytes = victim.bundle.bytes();
    host_bytes_ -= victim_bytes;
    index_.erase(victim.node);
    host_.pop_back();
    ++stats_.evictions;
  }
}

void TieredCache::InsertHost(Entry entry) {
  const size_t need = entry.bundle.bytes();
  MakeHostRoom(need);
  entry.bundle.MoveToDevice(Device::kHost);
  host_bytes_ += need;
  const int64_t node = entry.node;
  host_.push_front(std::move(entry));
  index_[node] = Slot{false, host_.begin()};
}

}  // namespace sgnn::serve

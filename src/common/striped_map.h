#ifndef CONCEALER_COMMON_STRIPED_MAP_H_
#define CONCEALER_COMMON_STRIPED_MAP_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace concealer {

/// A sharded, mutex-striped hash map for caches shared by many concurrent
/// readers/writers: keys hash to one of `num_shards` independently locked
/// unordered_maps, so threads touching different shards never contend.
/// Values are handed out as shared_ptr<const V> — a returned value stays
/// alive and immutable even if the entry is later evicted.
///
/// Intended for deterministic computations (same key -> same value): when
/// two threads miss on the same key concurrently, both compute and the
/// first insert wins; the loser's identical value is discarded. This keeps
/// the compute outside the shard lock, so an expensive miss never blocks
/// unrelated hits on the same shard.
///
/// `max_entries` (0 = unbounded) caps memory: a shard that reaches its
/// share of the cap is flushed before the next insert — a crude
/// whole-shard eviction, chosen over LRU because entries are cheap to
/// recompute and correctness never depends on a hit.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class StripedMap {
 public:
  explicit StripedMap(size_t num_shards = 16, size_t max_entries = 0)
      : shards_(num_shards == 0 ? 1 : num_shards),
        max_per_shard_(max_entries == 0
                           ? 0
                           : std::max<size_t>(1, max_entries / shards_.size())) {}

  StripedMap(const StripedMap&) = delete;
  StripedMap& operator=(const StripedMap&) = delete;

  /// Returns the cached value for `key`, or invokes `compute` (returning a
  /// Value) and caches its result. `compute` runs without any lock held.
  template <typename Fn>
  std::shared_ptr<const Value> GetOrCompute(const Key& key, Fn&& compute) {
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto value = std::make_shared<const Value>(compute());
    std::lock_guard<std::mutex> lock(shard.mu);
    if (max_per_shard_ != 0 && shard.map.size() >= max_per_shard_ &&
        shard.map.find(key) == shard.map.end()) {
      shard.map.clear();
    }
    return shard.map.emplace(key, std::move(value)).first->second;
  }

  /// Drops every entry. Values already handed out stay valid.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
    }
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.map.size();
    }
    return n;
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const Value>, Hash> map;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }

  // Constructed once and never resized: Shard itself is not movable.
  std::vector<Shard> shards_;
  const size_t max_per_shard_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace concealer

#endif  // CONCEALER_COMMON_STRIPED_MAP_H_

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "serve/types.h"

namespace dance::serve {

/// Thread-safe LRU memoization cache for cost-query responses: one mutex,
/// one hash map and one recency list. Holds at most `capacity` entries and
/// evicts the least-recently-used one on overflow; `get` refreshes recency.
///
/// One lock, not lock striping: `KeyHash % 8` put every one-hot key on the
/// same stripe, and this cache measured no slower than the 8-stripe one it
/// replaced (docs/serve.md, "Why one lock").
///
/// Transparency contract: the cache stores responses verbatim and never
/// synthesizes one, so for a deterministic backend a cached answer is
/// bit-identical to an uncached one (tests/test_property_serve.cpp hammers
/// this from many threads). Keys must be canonicalized (`canonical_key`)
/// before insertion/lookup — the Service does this for every query.
class LruCache {
 public:
  using Key = std::vector<float>;

  /// Hit/miss/eviction counters for THIS cache instance. The same events
  /// also feed the process-global obs counters
  /// serve.cache.{hits,misses,evictions}, which is what the JSON/Prometheus
  /// exporters report.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// `capacity` is the entry budget (>= 1 enforced).
  explicit LruCache(std::size_t capacity);

  /// Lookup; refreshes the entry's recency on hit. Counts a hit or a miss.
  [[nodiscard]] std::optional<Response> get(const Key& key);

  /// Insert or overwrite. Evicts the LRU entry on overflow.
  void put(const Key& key, const Response& response);

  [[nodiscard]] Stats stats() const;
  void clear();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  using Lru = std::list<std::pair<Key, Response>>;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  /// Most-recent at the front; holds the key so eviction can erase the map
  /// entry without a second copy of the key in the node.
  Lru lru_;
  std::unordered_map<Key, Lru::iterator, KeyHash, KeyEq> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;

  // Process-global counters (obs registry instruments are never destroyed,
  // so caching the references is safe and keeps the hot path lock-free).
  obs::Counter& obs_hits_;
  obs::Counter& obs_misses_;
  obs::Counter& obs_evictions_;
};

/// The name the cache had while it was split into shards; kept for the
/// benchmark program (perfbench/), which still spells it that way.
using ShardedLruCache = LruCache;

}  // namespace dance::serve

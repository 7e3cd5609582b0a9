#include "serve/cache.h"

#include <algorithm>

namespace dance::serve {

LruCache::LruCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      obs_hits_(obs::Registry::global().counter("serve.cache.hits")),
      obs_misses_(obs::Registry::global().counter("serve.cache.misses")),
      obs_evictions_(obs::Registry::global().counter("serve.cache.evictions")) {}

std::optional<Response> LruCache::get(const Key& key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    obs_misses_.inc();
    return std::nullopt;
  }
  ++hits_;
  obs_hits_.inc();
  // Refresh recency: splice the node to the front without reallocating.
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void LruCache::put(const Key& key, const Response& response) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = response;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, response);
  map_.emplace(key, lru_.begin());
  if (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
    obs_evictions_.inc();
  }
}

LruCache::Stats LruCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {hits_, misses_, evictions_, map_.size(), capacity_};
}

void LruCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  lru_.clear();
  hits_ = misses_ = evictions_ = 0;
}

}  // namespace dance::serve

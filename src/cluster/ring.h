#pragma once

#include <cstdint>
#include <vector>

#include "serve/types.h"

namespace dance::cluster {

/// Consistent-hash ring mapping canonical cost-query keys to shard ids.
///
/// Each shard contributes `vnodes` points on a 64-bit ring (hash of the
/// shard id salted by the vnode index); a key routes to the first point at
/// or clockwise-after its own hash. The classic properties follow:
///
///  - Determinism: the same key always lands on the same shard for a given
///    shard set — routing state lives nowhere, every router/client with the
///    same (ids, vnodes) agrees.
///  - Stability: adding or removing one shard remaps only the keys whose
///    arc the change touched — about 1/N of the space, the rest keep their
///    mapping exactly (tests/test_property_cluster.cpp checks both).
///
/// Vnode count trades ring-build cost (N*vnodes points, sorted once) for
/// load spread; 64 keeps the max/min shard load within a few tens of
/// percent at realistic N. Immutable after construction, so concurrent
/// lookups need no locking.
///
/// Knob: DANCE_CLUSTER_VNODES (default 64) — read by `vnodes_from_env`,
/// constructor argument wins.
class HashRing {
 public:
  /// `shard_ids` need not be contiguous or sorted; duplicates are ignored.
  /// `vnodes < 1` is clamped to 1. An empty ring is legal but `lookup`
  /// on it is a programming error (asserted in debug builds).
  explicit HashRing(const std::vector<int>& shard_ids, int vnodes = 64);

  [[nodiscard]] static int vnodes_from_env();

  /// Shard owning `hash64` (e.g. serve::KeyHash over a canonical key).
  [[nodiscard]] int lookup(std::uint64_t hash64) const;

  /// Convenience: hash a canonical key (serve::canonical_key output) and
  /// look it up. Non-canonical keys route consistently too, but only the
  /// canonical form matches the cache's key space.
  [[nodiscard]] int lookup_key(const std::vector<float>& canonical_key) const;

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] int num_shards() const { return num_shards_; }

  /// The ring point a shard id + vnode index hashes to (exposed so tests
  /// can reason about the point set).
  [[nodiscard]] static std::uint64_t point_hash(int shard_id, int vnode);

 private:
  struct Point {
    std::uint64_t hash;
    int shard;
  };
  std::vector<Point> points_;  ///< sorted by hash
  int num_shards_ = 0;
};

}  // namespace dance::cluster

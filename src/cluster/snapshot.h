#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "serve/cache.h"

namespace dance::cluster {

/// Raised when a snapshot file is unreadable, truncated, checksum-corrupt,
/// from an unknown format version, or built for a different encoding
/// width. Loads fail atomically: the target cache is untouched on throw.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Versioned binary cache snapshot — the cluster warm-start path. A shard
/// saves its memoization cache at drain and reloads it at the next start,
/// so a restarted shard answers its working set from the cache instead of
/// re-querying the backend cold.
///
/// Format (little-endian, version 1):
///   "DSNP"                      4-byte magic
///   u32 version        = 1
///   u32 encoding_width          canonical-key float count (0 = unchecked)
///   u64 entry_count
///   entry_count times:
///     u32 key_len               floats in the key
///     f32[key_len]              canonical key bytes
///     f64 latency_ms, f64 energy_mj, f64 area_mm2
///     i32 pe_x, i32 pe_y, i32 rf_size
///     u8  dataflow              index into accel::kAllDataflows
///     u8  flags          = 0    (reserved; `cached` is per-query, not stored)
///   u64 checksum                FNV-1a over every preceding byte
///
/// Entries are written in LruCache::entries() order (least-recently-used
/// first) and replayed through put(), so loading into a cache of the same
/// capacity restores recency exactly.
///
/// Obs counters: cluster.snapshot.{saved_entries,loaded_entries,errors}.

/// Writes `cache` to `path` atomically (temp file + rename). Returns the
/// entry count written. Throws SnapshotError on I/O failure.
std::size_t save_snapshot(const serve::LruCache& cache,
                          int encoding_width, const std::string& path);

/// Replays `path` into `cache` via put(). The whole file is parsed and
/// checksum-verified before the first insertion, so a corrupt file never
/// half-populates the cache. `expected_width` must match the stored width
/// (pass 0 to skip the check). Returns the entry count restored.
std::size_t load_snapshot(const std::string& path, int expected_width,
                          serve::LruCache& cache);

}  // namespace dance::cluster

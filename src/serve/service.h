#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "serve/batcher.h"
#include "serve/cache.h"

namespace dance::serve {

/// Snapshot of the service counters for one stats window (since start or the
/// last reset_stats()).
struct ServiceStats {
  std::uint64_t queries = 0;
  double window_seconds = 0.0;
  double qps = 0.0;
  LruCache::Stats cache;
  MicroBatcher::Stats batcher;
  /// Client-observed per-query latency percentiles (microseconds), over the
  /// most recent samples (bounded ring, like the runtime profiler).
  double p50_us = 0.0;
  double p95_us = 0.0;
};

/// The embeddable cost-query service: cache -> micro-batcher -> backend.
///
/// `query` is the hot path: canonicalize the encoding, probe the LRU
/// cache, and on a miss ride the micro-batcher into a batched backend
/// call, memoizing the answer on the way out. Every query's wall latency is
/// recorded for the p50/p95 report. Thread-safe: any number of client
/// threads may call `query` concurrently.
///
/// Knobs (environment, read by Options::from_env; constructor args win):
///   DANCE_SERVE_CACHE_CAP   cache entries              (default 8192)
///   DANCE_SERVE_MAX_BATCH   batch count trigger        (default 32)
///   DANCE_SERVE_MAX_WAIT_US batch deadline trigger     (default 200)
///   DANCE_SERVE_MAX_PENDING load-shedding queue cap    (default 4096,
///                           0 disables shedding)
class Service {
 public:
  struct Options {
    std::size_t cache_capacity = 8192;
    MicroBatcher::Options batch;

    /// Defaults overridden by any DANCE_SERVE_* variables that parse as a
    /// positive integer (DANCE_SERVE_MAX_WAIT_US accepts 0); garbage values
    /// are ignored. Reads go through util::env, so every knob is recorded in
    /// the obs registry with its effective value.
    [[nodiscard]] static Options from_env();
  };

  Service(CostQueryBackend& backend, Options opts);
  explicit Service(CostQueryBackend& backend)
      : Service(backend, Options::from_env()) {}

  /// Blocking single query. `cached` is set on the response iff it was
  /// answered from the memoization cache.
  [[nodiscard]] Response query(const Request& request);

  /// Bulk replay: cache-probes all requests, deduplicates the missed keys
  /// within the call (the backend sees each unique key once, even on a cold
  /// cache), then answers them in max_batch-sized backend slices on the
  /// calling thread (no deadline waits — the batch is already here).
  /// Responses are in request order; repeats of a missed key after its first
  /// occurrence come back with `cached` set, like a cache hit.
  [[nodiscard]] std::vector<Response> query_many(
      std::span<const Request> requests);

  [[nodiscard]] ServiceStats stats() const;
  /// Fixed-width text block (QPS, hit rate, batch shape, p50/p95), ready to
  /// print; rendered through the same util::Table formatter as
  /// runtime::profiler_report.
  [[nodiscard]] std::string stats_report() const;
  /// Restarts the stats window and latency samples (cache contents and
  /// cache/batcher lifetime counters are preserved).
  void reset_stats();

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] CostQueryBackend& backend() { return batcher_.backend(); }
  /// The memoization cache; never null. Exposed so the cluster snapshot
  /// layer can export/restore entries for warm starts.
  [[nodiscard]] LruCache* cache() { return &cache_; }

 private:
  void record_latency_us(double us);

  Options opts_;
  LruCache cache_;
  MicroBatcher batcher_;

  mutable std::mutex stats_mu_;
  std::uint64_t queries_ = 0;
  std::vector<double> latency_ring_;
  std::size_t latency_next_ = 0;
  std::chrono::steady_clock::time_point window_start_;

  // Process-global mirrors of the per-instance counters above, for the
  // JSON/Prometheus exporters.
  obs::Counter& obs_queries_;
  obs::Histogram& obs_latency_us_;
};

}  // namespace dance::serve

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "serve/backend.h"
#include "serve/cache.h"

namespace dance::serve {

/// Snapshot of the service counters for one stats window (since start or the
/// last reset_stats()).
struct ServiceStats {
  std::uint64_t queries = 0;
  double window_seconds = 0.0;
  double qps = 0.0;
  LruCache::Stats cache;
  /// Client-observed per-query latency percentiles (microseconds), over the
  /// most recent kHistogramSampleCap samples of each client thread.
  double p50_us = 0.0;
  double p95_us = 0.0;
};

/// The embeddable cost-query service: cache -> backend.
///
/// `query` is the hot path: probe the LRU cache with the encoding as sent
/// (the key hash folds -0), and on a miss call the backend with that one
/// request, memoizing the answer under its canonical key on the way out.
/// Every query's wall latency goes into a per-thread-sharded histogram for
/// the p50/p95 report, so a hit takes no lock but the cache's and its own
/// shard's. Thread-safe: any number of client threads may call `query` and
/// `query_many` concurrently; one mutex lets one of them at a time into the
/// backend.
///
/// Every backend call adds 1 to the process-global obs counter
/// serve.batch.executed and its row count to serve.batch.requests.
///
/// Knobs (environment, read by Options::from_env; constructor args win):
///   DANCE_SERVE_CACHE_CAP   cache entries              (default 8192)
class Service {
 public:
  struct Options {
    std::size_t cache_capacity = 8192;

    /// Defaults overridden by any DANCE_SERVE_* variables that parse as a
    /// positive integer; garbage values are ignored. Reads go through util::env, so every knob is recorded in
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
  /// cache), then answers them all in one backend call on the calling
  /// thread.
  /// Responses are in request order; repeats of a missed key after its first
  /// occurrence come back with `cached` set, like a cache hit.
  [[nodiscard]] std::vector<Response> query_many(
      std::span<const Request> requests);

  [[nodiscard]] ServiceStats stats() const;
  /// Fixed-width text block (QPS, hit rate, p50/p95), ready to
  /// print; rendered through the same util::Table formatter as
  /// runtime::profiler_report.
  [[nodiscard]] std::string stats_report() const;
  /// Restarts the stats window and latency samples (cache contents and
  /// cache lifetime counters are preserved).
  void reset_stats();

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] CostQueryBackend& backend() { return backend_; }
  /// The memoization cache; never null. Exposed for the benchmark program
  /// (perfbench/), which primes it and reads its hit rate.
  [[nodiscard]] LruCache* cache() { return &cache_; }

 private:
  /// Answers `requests` with one backend call under `backend_mu_`.
  [[nodiscard]] std::vector<Response> call_backend(
      std::span<const Request> requests);
  void record_latency_us(double us);

  Options opts_;
  LruCache cache_;
  CostQueryBackend& backend_;
  std::mutex backend_mu_;  ///< held around every backend_.query_batch call

  /// This stats window's latencies; its count is the window's query count.
  obs::Histogram latency_us_;
  /// steady_clock ticks at the window's start; read and written only by
  /// stats() and reset_stats(), never on the query path.
  std::atomic<std::chrono::steady_clock::rep> window_start_;

  // Process-global instruments for the JSON/Prometheus exporters; the first
  // two mirror the per-instance histogram above.
  obs::Counter& obs_queries_;
  obs::Histogram& obs_latency_us_;
  obs::Counter& obs_backend_calls_;  ///< serve.batch.executed
  obs::Counter& obs_backend_rows_;   ///< serve.batch.requests
};

}  // namespace dance::serve

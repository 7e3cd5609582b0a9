#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dance::obs {

/// Monotonic event counter. inc() is a relaxed atomic add, so counters can
/// sit on hot paths (cache probes, batch executions) without a lock.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  void reset() { v_.store(0, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (loss, lambda, learning rate, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  void reset() { v_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> v_{0.0};
};

/// Samples retained per histogram shard for the percentile columns. Matches
/// the runtime profiler's historical ring cap so percentile semantics carry
/// over unchanged for a single-threaded writer: p50/p95 describe the most
/// recent kHistogramSampleCap observations of each writing thread, not the
/// full history.
inline constexpr std::size_t kHistogramSampleCap = 4096;

/// Shards per histogram. Each writing thread owns one shard (threads past
/// this many share them round-robin), so concurrent writers on different
/// cores do not contend for one lock or bounce one cache line.
inline constexpr std::size_t kHistogramShards = 8;

/// Fixed-boundary histogram plus a bounded ring of recent samples.
///
/// The boundaries are upper bounds (Prometheus `le` semantics) and are fixed
/// at construction; observations land in the first bucket whose bound is
/// >= the value, or in the implicit +Inf bucket. count/sum/min/max cover the
/// full lifetime; p50/p95 come from the sample rings at snapshot time.
///
/// Sharded per thread: observe() writes only the calling thread's shard,
/// under that shard's own mutex, and snapshot() merges the shards.
class Histogram {
 public:
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    std::vector<double> bounds;  ///< upper bounds, +Inf implied at the end
    /// Cumulative counts, Prometheus-style: buckets[i] counts observations
    /// <= bounds[i]; the final entry (+Inf bucket) equals `count`.
    std::vector<std::uint64_t> buckets;

    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  /// A histogram outside the registry (serve::Service keeps one per stats
  /// window); Registry::histogram hands out the process-global ones.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  [[nodiscard]] Snapshot snapshot() const;
  /// Zero every shard; the boundaries stay.
  void reset();

 private:
  /// One thread's slice, on cache lines of its own.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<std::uint64_t> buckets;  ///< per-bucket (non-cumulative), +Inf last
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> samples;  ///< bounded ring for p50/p95
    std::size_t next_sample = 0;
  };

  std::vector<double> bounds_;  ///< sorted upper bounds
  std::array<Shard, kHistogramShards> shards_;
};

/// One environment knob as observed by util::env: the effective value after
/// parsing/validation and whether it came from the environment or fell back
/// to the compiled-in default.
struct EnvKnob {
  std::string value;
  bool from_env = false;
};

/// Default boundaries for wall-clock histograms in milliseconds: roughly
/// log-spaced from 1us to 5s, enough resolution for both tensor ops and
/// whole search epochs.
[[nodiscard]] std::vector<double> default_time_bounds_ms();

/// Boundaries suited to microsecond-scale serving latencies.
[[nodiscard]] std::vector<double> default_latency_bounds_us();

/// Process-wide, thread-safe instrument registry.
///
/// Instruments are created on first use and live for the process lifetime,
/// so the returned references stay valid forever and can be cached by hot
/// paths. Names are dot-separated lowercase paths ("serve.cache.hits"); the
/// Prometheus exporter maps dots to underscores. Repeated registration of
/// the same name returns the same instrument (histogram boundaries are fixed
/// by the first registration).
class Registry {
 public:
  /// The process-global registry (never destroyed, safe during shutdown).
  /// First use also arms the DANCE_METRICS_JSON at-exit export when that
  /// variable names a writable path.
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  Histogram& histogram(const std::string& name) {
    return histogram(name, default_time_bounds_ms());
  }

  /// Record the effective value of one environment knob (util::env calls
  /// this on every read; later reads overwrite).
  void record_env(const std::string& name, std::string value, bool from_env);

  /// Point-in-time copy of every instrument, name-sorted within each kind.
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    std::vector<std::pair<std::string, EnvKnob>> env;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every instrument (identities and env records survive; references
  /// handed out earlier remain valid).
  void reset();

  /// Zero only instruments whose name starts with `prefix` (the profiler's
  /// reset path: drop runtime.op_ms.* without disturbing serve counters).
  void reset_prefix(const std::string& prefix);

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, EnvKnob> env_;
};

}  // namespace dance::obs

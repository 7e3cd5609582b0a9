#include "obs/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/export.h"
#include "util/stats.h"

namespace dance::obs {

namespace {

/// Path for the at-exit JSON export; set once when the registry is created.
std::string& exit_path() {
  static std::string p;
  return p;
}

void export_at_exit() {
  if (exit_path().empty()) return;
  if (!write_json_file(exit_path())) {
    std::fprintf(stderr, "[obs] failed to write DANCE_METRICS_JSON=%s\n",
                 exit_path().c_str());
  }
}

/// The shard the calling thread writes: threads take indices round-robin
/// at their first observation and keep them for life, in every histogram.
std::size_t this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kHistogramShards;
  return shard;
}

}  // namespace

std::vector<double> default_time_bounds_ms() {
  return {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
          5.0,   10.0,  50.0, 100.0, 500.0, 1000.0, 5000.0};
}

std::vector<double> default_latency_bounds_us() {
  return {1.0,    5.0,    10.0,    50.0,    100.0,   500.0,
          1000.0, 5000.0, 10000.0, 50000.0, 100000.0};
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (Shard& shard : shards_) {
    shard.buckets.assign(bounds_.size() + 1, 0);  // +1: the implicit +Inf bucket
  }
}

void Histogram::observe(double v) {
  // First bound >= v is the owning `le` bucket; past the end -> +Inf.
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Shard& shard = shards_[this_thread_shard()];
  std::lock_guard<std::mutex> lk(shard.mu);
  if (shard.count == 0 || v < shard.min) shard.min = v;
  if (shard.count == 0 || v > shard.max) shard.max = v;
  ++shard.count;
  shard.sum += v;
  ++shard.buckets[bucket];
  if (shard.samples.size() < kHistogramSampleCap) {
    shard.samples.push_back(v);
  } else {
    shard.samples[shard.next_sample] = v;
    shard.next_sample = (shard.next_sample + 1) % kHistogramSampleCap;
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  std::vector<std::uint64_t> buckets(bounds_.size() + 1, 0);
  std::vector<double> samples;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    if (shard.count == 0) continue;
    if (s.count == 0 || shard.min < s.min) s.min = shard.min;
    if (s.count == 0 || shard.max > s.max) s.max = shard.max;
    s.count += shard.count;
    s.sum += shard.sum;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      buckets[b] += shard.buckets[b];
    }
    samples.insert(samples.end(), shard.samples.begin(), shard.samples.end());
  }
  s.p50 = util::percentile(samples, 50.0);
  s.p95 = util::percentile(samples, 95.0);
  s.buckets.reserve(buckets.size());
  std::uint64_t cumulative = 0;
  for (const std::uint64_t b : buckets) {
    cumulative += b;
    s.buckets.push_back(cumulative);
  }
  return s;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    std::fill(shard.buckets.begin(), shard.buckets.end(), 0);
    shard.count = 0;
    shard.sum = shard.min = shard.max = 0.0;
    shard.samples.clear();
    shard.next_sample = 0;
  }
}

Registry& Registry::global() {
  // Leaked on purpose: instruments may be touched from atexit handlers and
  // static destructors, so the registry must outlive every other static.
  static Registry* r = [] {
    auto* reg = new Registry();
    const char* path = std::getenv("DANCE_METRICS_JSON");
    reg->record_env("DANCE_METRICS_JSON", path == nullptr ? "" : path,
                    path != nullptr);
    if (path != nullptr && *path != '\0') {
      exit_path() = path;
      std::atexit(export_at_exit);
    }
    return reg;
  }();
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge());
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram(std::move(bounds)));
  return *slot;
}

void Registry::record_env(const std::string& name, std::string value,
                          bool from_env) {
  std::lock_guard<std::mutex> lk(mu_);
  env_[name] = EnvKnob{std::move(value), from_env};
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lk(mu_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h->snapshot());
  }
  out.env.assign(env_.begin(), env_.end());
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void Registry::reset_prefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto matches = [&prefix](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  for (auto& [name, c] : counters_) {
    if (matches(name)) c->reset();
  }
  for (auto& [name, g] : gauges_) {
    if (matches(name)) g->reset();
  }
  for (auto& [name, h] : histograms_) {
    if (matches(name)) h->reset();
  }
}

}  // namespace dance::obs

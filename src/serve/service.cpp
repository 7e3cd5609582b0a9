#include "serve/service.h"

#include <unordered_map>
#include <utility>

#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"

namespace dance::serve {

namespace {

constexpr std::size_t kLatencySampleCap = 1 << 16;

}  // namespace

Service::Options Service::Options::from_env() {
  Options opts;
  opts.cache_capacity = static_cast<std::size_t>(util::env_long(
      "DANCE_SERVE_CACHE_CAP", static_cast<long>(opts.cache_capacity), 1));
  opts.batch.max_batch =
      util::env_int("DANCE_SERVE_MAX_BATCH", opts.batch.max_batch, 1);
  opts.batch.max_wait_us =
      util::env_long("DANCE_SERVE_MAX_WAIT_US", opts.batch.max_wait_us, 0);
  // 0 is in range: "disable load shedding".
  opts.batch.max_pending =
      util::env_long("DANCE_SERVE_MAX_PENDING", opts.batch.max_pending, 0);
  return opts;
}

Service::Service(CostQueryBackend& backend, Options opts)
    : opts_(opts),
      cache_(opts.cache_capacity),
      batcher_(backend, opts.batch),
      obs_queries_(obs::Registry::global().counter("serve.queries")),
      obs_latency_us_(obs::Registry::global().histogram(
          "serve.latency_us", obs::default_latency_bounds_us())) {
  latency_ring_.reserve(kLatencySampleCap);
  window_start_ = std::chrono::steady_clock::now();
}

Response Service::query(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<float> key = canonical_key(request);

  Response response;
  if (auto hit = cache_.get(key)) {
    response = *hit;
    response.cached = true;
  } else {
    response = batcher_.query(request);
    response.cached = false;
    // Degraded (fallback-tier) answers are never memoized: once the primary
    // recovers, a repeat of this key should fetch — and then cache — the
    // exact answer instead of pinning the degraded one forever.
    if (!response.degraded) cache_.put(key, response);
  }

  const auto end = std::chrono::steady_clock::now();
  record_latency_us(
      std::chrono::duration<double, std::micro>(end - start).count());
  return response;
}

std::vector<Response> Service::query_many(std::span<const Request> requests) {
  const auto start = std::chrono::steady_clock::now();

  std::vector<Response> out(requests.size());
  std::vector<Request> misses;  ///< one representative per unique missed key
  /// Positions to fill from `misses`; second = index into `misses`. Repeated
  /// keys within one bulk call are deduplicated here, so the backend sees
  /// each unique key once even on a cold cache.
  std::vector<std::pair<std::size_t, std::size_t>> miss_fill;
  std::unordered_map<std::vector<float>, std::size_t, KeyHash, KeyEq> pending;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::vector<float> key = canonical_key(requests[i]);
    if (auto hit = cache_.get(key)) {
      out[i] = *hit;
      out[i].cached = true;
      continue;
    }
    const auto [it, inserted] = pending.try_emplace(std::move(key), misses.size());
    if (inserted) misses.push_back(requests[i]);
    miss_fill.emplace_back(i, it->second);
  }

  if (!misses.empty()) {
    auto answered = batcher_.query_span(misses);
    std::vector<bool> first_fill(misses.size(), true);
    for (const auto& [position, m] : miss_fill) {
      out[position] = answered[m];
      // The first occurrence paid for the backend call; later occurrences of
      // the same key were answered by within-call memoization.
      out[position].cached = !first_fill[m];
      first_fill[m] = false;
    }
    for (std::size_t m = 0; m < misses.size(); ++m) {
      answered[m].cached = false;
      // Same rule as query(): degraded answers are not memoized.
      if (!answered[m].degraded) {
        cache_.put(canonical_key(misses[m]), answered[m]);
      }
    }
  }

  const auto end = std::chrono::steady_clock::now();
  // One latency sample per request: the mean wall share of the bulk call
  // (per-request timing inside a bulk replay would mostly time the clock).
  const double per_request_us =
      requests.empty()
          ? 0.0
          : std::chrono::duration<double, std::micro>(end - start).count() /
                static_cast<double>(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    record_latency_us(per_request_us);
  }
  return out;
}

void Service::record_latency_us(double us) {
  obs_queries_.inc();
  obs_latency_us_.observe(us);
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++queries_;
  if (latency_ring_.size() < kLatencySampleCap) {
    latency_ring_.push_back(us);
  } else {
    latency_ring_[latency_next_] = us;
    latency_next_ = (latency_next_ + 1) % kLatencySampleCap;
  }
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s.queries = queries_;
    s.window_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - window_start_)
                           .count();
    s.p50_us = util::percentile(latency_ring_, 50.0);
    s.p95_us = util::percentile(latency_ring_, 95.0);
  }
  s.qps = s.window_seconds > 0.0
              ? static_cast<double>(s.queries) / s.window_seconds
              : 0.0;
  s.cache = cache_.stats();
  s.batcher = batcher_.stats();
  return s;
}

std::string Service::stats_report() const {
  const ServiceStats s = stats();
  util::Table table({"metric", "value"});
  using Align = util::Table::Align;
  table.set_align({Align::kLeft, Align::kRight});
  table.add_row({"queries", std::to_string(s.queries)});
  table.add_row({"window s", util::Table::fmt(s.window_seconds, 3)});
  table.add_row({"QPS", util::Table::fmt(s.qps, 0)});
  table.add_row({"cache hits", std::to_string(s.cache.hits)});
  table.add_row({"cache misses", std::to_string(s.cache.misses)});
  table.add_row({"hit rate %", util::Table::fmt(100.0 * s.cache.hit_rate(), 1)});
  table.add_row({"cache entries", std::to_string(s.cache.entries) + "/" +
                                      std::to_string(s.cache.capacity)});
  table.add_row({"evictions", std::to_string(s.cache.evictions)});
  table.add_row({"batches", std::to_string(s.batcher.batches)});
  table.add_row({"mean batch", util::Table::fmt(s.batcher.mean_batch(), 1)});
  table.add_row({"max batch", std::to_string(s.batcher.max_batch_seen)});
  table.add_row({"shed", std::to_string(s.batcher.shed)});
  table.add_row({"latency p50 us", util::Table::fmt(s.p50_us, 1)});
  table.add_row({"latency p95 us", util::Table::fmt(s.p95_us, 1)});
  return table.to_string(util::Table::Style::plain());
}

void Service::reset_stats() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  queries_ = 0;
  latency_ring_.clear();
  latency_next_ = 0;
  window_start_ = std::chrono::steady_clock::now();
}

}  // namespace dance::serve

#include "serve/service.h"

#include <unordered_map>
#include <utility>

#include "util/env.h"
#include "util/table.h"

namespace dance::serve {

namespace {

std::chrono::steady_clock::rep now_ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace

Service::Options Service::Options::from_env() {
  Options opts;
  opts.cache_capacity = static_cast<std::size_t>(util::env_long(
      "DANCE_SERVE_CACHE_CAP", static_cast<long>(opts.cache_capacity), 1));
  return opts;
}

Service::Service(CostQueryBackend& backend, Options opts)
    : opts_(opts),
      cache_(opts.cache_capacity),
      backend_(backend),
      latency_us_(obs::default_latency_bounds_us()),
      window_start_(now_ticks()),
      obs_queries_(obs::Registry::global().counter("serve.queries")),
      obs_latency_us_(obs::Registry::global().histogram(
          "serve.latency_us", obs::default_latency_bounds_us())),
      obs_backend_calls_(
          obs::Registry::global().counter("serve.batch.executed")),
      obs_backend_rows_(
          obs::Registry::global().counter("serve.batch.requests")) {}

Response Service::query(const Request& request) {
  const auto start = std::chrono::steady_clock::now();

  Response response;
  if (auto hit = cache_.get(request.encoding)) {
    response = *hit;
    response.cached = true;
  } else {
    response = std::move(call_backend({&request, 1}).front());
    response.cached = false;
    cache_.put(canonical_key(request.encoding), response);
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
    if (auto hit = cache_.get(requests[i].encoding)) {
      out[i] = *hit;
      out[i].cached = true;
      continue;
    }
    const auto [it, inserted] = pending.try_emplace(
        canonical_key(requests[i].encoding), misses.size());
    if (inserted) misses.push_back(requests[i]);
    miss_fill.emplace_back(i, it->second);
  }

  if (!misses.empty()) {
    auto answered = call_backend(misses);
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
      cache_.put(canonical_key(misses[m].encoding), answered[m]);
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

std::vector<Response> Service::call_backend(
    std::span<const Request> requests) {
  std::lock_guard<std::mutex> lk(backend_mu_);
  obs_backend_calls_.inc();
  obs_backend_rows_.inc(requests.size());
  return backend_.query_batch(requests);
}

void Service::record_latency_us(double us) {
  obs_queries_.inc();
  obs_latency_us_.observe(us);
  latency_us_.observe(us);
}

ServiceStats Service::stats() const {
  ServiceStats s;
  const obs::Histogram::Snapshot latency = latency_us_.snapshot();
  s.queries = latency.count;
  s.window_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::duration(
                             now_ticks() - window_start_.load()))
                         .count();
  s.p50_us = latency.p50;
  s.p95_us = latency.p95;
  s.qps = s.window_seconds > 0.0
              ? static_cast<double>(s.queries) / s.window_seconds
              : 0.0;
  s.cache = cache_.stats();
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
  table.add_row({"latency p50 us", util::Table::fmt(s.p50_us, 1)});
  table.add_row({"latency p95 us", util::Table::fmt(s.p95_us, 1)});
  return table.to_string(util::Table::Style::plain());
}

void Service::reset_stats() {
  latency_us_.reset();
  window_start_.store(now_ticks());
}

}  // namespace dance::serve

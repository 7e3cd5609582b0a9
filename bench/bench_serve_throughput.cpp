// dance::serve throughput: what does the service layer buy over calling the
// evaluator directly?
//
// Replays a 10k-request trace (scaled by DANCE_BENCH_SCALE) with a unique-key
// pool of N/8 — i.e. ~87% of requests repeat an earlier key, the regime a
// NAS search loop produces when candidate architectures recur across
// iterations. Three ways to answer the same trace:
//   serial          one Evaluator::forward_deterministic per request
//   batched         Evaluator::forward_batch in max_batch-sized chunks
//   cached+batched  Service::query_many in 512-request arrival windows
//                   (LRU across windows + within-call dedup +
//                   batched backend)
// plus a degraded-mode row: the cached+batched stack with 10% injected
// backend errors behind the resilience decorator (retries + fallback), to
// price what fault tolerance costs when the backend actually misbehaves.
// Expected shape: batching amortizes per-call overhead for a low-single-digit
// multiple; the cache turns the ~75% repeats into lookups for >=5x combined.
// The serial and batched answers are checked bit-identical first — the
// deterministic-inference contract that makes the comparison meaningful.
//
// A registry row prices zero-downtime hot swaps: the same trace replayed
// through the registry backend (pin -> generation-scoped cache) while a
// publisher thread publishes a new generation at the halfway mark. The row
// reports steady-state vs swap-window QPS and p99 (the window spans the
// publish plus the cold-namespace re-warm right after the swap) — the
// price of a swap is a transient dip, never a dropped or errored response.
//
// A second section prices the surrogate's serving path: the same
// single-query trace answered by the autograd oracle
// (Evaluator::forward_batch) and by SurrogateBackend, which serves through
// the fused frozen plan — QPS, p50/p95 latency, and a bit-identity check of
// the two over every unique key.
//
// A third section prices the exact ground-truth path's startup and serving
// under the CostProvider API: an in-memory CostTable build vs mmap-loading a
// compiled DCTB artifact — build/load wall time,
// RSS delta, file size, and ExactBackend QPS/p50/p99 through each provider,
// with a bit-identity check between the mmap and in-memory answers. Rows go
// to bench/data/cost_table.csv. Set DANCE_BENCH_ONLY=costtable to run just
// this section (the CI release smoke does).
//
// Prints ASCII tables, writes bench/data/serve_throughput.csv,
// bench/data/infer_tiers.csv and bench/data/cost_table.csv, and runs
// google-benchmark micros for the per-query primitives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "accel/cost_function.h"
#include "arch/cost_artifact.h"
#include "arch/cost_table.h"
#include "bench_common.h"
#include "evalnet/evaluator.h"
#include "fault/fault.h"
#include "fault/faulty_backend.h"
#include "registry/registry.h"
#include "serve/backend.h"
#include "serve/resilient.h"
#include "serve/service.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace dance;

struct Env {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space;
  std::unique_ptr<evalnet::Evaluator> evaluator;
  std::vector<std::vector<float>> unique_keys;
  std::vector<serve::Request> trace;  ///< the replayed request sequence

  Env() {
    util::Rng rng(21);
    evaluator = std::make_unique<evalnet::Evaluator>(
        arch_space.encoding_width(), hw_space, rng);
    evaluator->set_frozen(true);
    evaluator->set_training(false);

    const int n = bench::scaled(10000);
    const int unique = std::max(1, n / 8);  // ~87% repeated keys
    unique_keys.reserve(static_cast<std::size_t>(unique));
    for (int k = 0; k < unique; ++k) {
      unique_keys.push_back(arch_space.encode(arch_space.random(rng)));
    }
    trace.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      trace.push_back(serve::Request{
          unique_keys[static_cast<std::size_t>(rng.randint(0, unique - 1))]});
    }
  }
};

Env& env() {
  static Env e;
  return e;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

constexpr int kChunk = 64;  ///< batched-mode slice, also the service max_batch

/// Serial replay: the naive client, one single-row forward per request.
/// Returns the flat [N, 3] metrics for the bit-identity check.
std::vector<float> replay_serial(double& seconds) {
  Env& e = env();
  std::vector<float> metrics;
  metrics.reserve(e.trace.size() * 3);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& req : e.trace) {
    tensor::Variable row(tensor::Tensor::from(
        {1, static_cast<int>(req.encoding.size())}, req.encoding));
    const auto out = e.evaluator->forward_deterministic(row);
    const float* m = out.metrics.value().data();
    metrics.insert(metrics.end(), m, m + 3);
  }
  seconds = seconds_since(start);
  return metrics;
}

/// Batched replay: forward_batch over kChunk-row slices, no cache.
std::vector<float> replay_batched(double& seconds) {
  Env& e = env();
  std::vector<float> metrics;
  metrics.reserve(e.trace.size() * 3);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t at = 0; at < e.trace.size(); at += kChunk) {
    const std::size_t hi = std::min(at + kChunk, e.trace.size());
    std::vector<std::vector<float>> rows;
    rows.reserve(hi - at);
    for (std::size_t i = at; i < hi; ++i) rows.push_back(e.trace[i].encoding);
    const auto out = e.evaluator->forward_batch(rows);
    const float* m = out.metrics.value().data();
    metrics.insert(metrics.end(), m, m + 3 * (hi - at));
  }
  seconds = seconds_since(start);
  return metrics;
}

// --- registry hot swap under load -------------------------------------------

struct HotSwapResult {
  double seconds = 0.0;  ///< whole replay wall time
  double steady_qps = 0.0;
  double steady_p99_us = 0.0;
  double swap_qps = 0.0;
  double swap_p99_us = 0.0;
  double swap_window_s = 0.0;
  double hit_rate = 0.0;
  std::size_t in_window = 0;
  std::size_t errors = 0;  ///< must stay 0: swaps never drop a response
};

double p99_us(std::vector<double>& lat) {
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  return lat[std::min(lat.size() - 1, (lat.size() * 99) / 100)];
}

/// Replays the trace through a registry-backed service (every query pinned
/// to the live generation) while a publisher thread hot-swaps the model at
/// the halfway mark. The swap window runs from publish start until 50 ms
/// after the swap lands, covering both the publish itself and the
/// cold-namespace re-warm that follows the generation flip.
HotSwapResult run_hotswap() {
  Env& e = env();
  const std::string dir =
      "/tmp/dance_bench_registry_" + std::to_string(getpid());
  mkdir(dir.c_str(), 0755);
  registry::ModelRegistry::init(dir);
  registry::ModelRegistry reg(dir, e.hw_space);
  {
    util::Rng rng(33);
    evalnet::Evaluator ev(e.arch_space.encoding_width(), e.hw_space, rng);
    (void)reg.publish("bench", ev);
  }
  registry::RegistryBackend backend;
  serve::Service::Options opts;
  opts.batch.max_batch = 1;  // single client: inline path, clean latencies
  serve::Service service(backend, opts);

  HotSwapResult out;
  std::atomic<std::size_t> progress{0};
  std::atomic<double> swap_lo{-1.0};
  std::atomic<double> swap_hi{-1.0};
  const auto start = std::chrono::steady_clock::now();

  std::thread publisher([&] {
    while (progress.load(std::memory_order_relaxed) < e.trace.size() / 2) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    swap_lo.store(seconds_since(start));
    util::Rng rng(34);
    evalnet::Evaluator ev(e.arch_space.encoding_width(), e.hw_space, rng);
    (void)reg.publish("bench", ev);
    swap_hi.store(seconds_since(start));
  });

  std::vector<double> began(e.trace.size());
  std::vector<double> lat(e.trace.size());
  for (std::size_t i = 0; i < e.trace.size(); ++i) {
    const auto q0 = std::chrono::steady_clock::now();
    began[i] = seconds_since(start);
    try {
      const registry::VersionPtr pin = reg.pin("bench");
      auto r = service.query(
          registry::ModelRegistry::make_request(pin, e.trace[i].encoding));
      benchmark::DoNotOptimize(r);
    } catch (const std::exception&) {
      ++out.errors;
    }
    lat[i] = 1e6 * seconds_since(q0);
    progress.store(i + 1, std::memory_order_relaxed);
  }
  out.seconds = seconds_since(start);
  publisher.join();
  out.hit_rate = service.stats().cache.hit_rate();

  const double lo = swap_lo.load();
  const double hi = std::max(swap_hi.load(), lo) + 0.050;
  std::vector<double> in_lat;
  std::vector<double> steady_lat;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    (began[i] >= lo && began[i] < hi ? in_lat : steady_lat).push_back(lat[i]);
  }
  out.in_window = in_lat.size();
  out.swap_window_s = hi - lo;
  out.swap_qps = static_cast<double>(in_lat.size()) / out.swap_window_s;
  out.steady_qps = static_cast<double>(steady_lat.size()) /
                   std::max(1e-9, out.seconds - out.swap_window_s);
  out.swap_p99_us = p99_us(in_lat);
  out.steady_p99_us = p99_us(steady_lat);

  util::Table table({"phase", "requests", "QPS", "p99 us"});
  table.add_row({"steady state", std::to_string(steady_lat.size()),
                 util::Table::fmt(out.steady_qps, 0),
                 util::Table::fmt(out.steady_p99_us, 1)});
  table.add_row({"swap window", std::to_string(out.in_window),
                 util::Table::fmt(out.swap_qps, 0),
                 util::Table::fmt(out.swap_p99_us, 1)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("hot swap: live generation %llu after the flip, window %.0f ms, "
              "dropped/errored responses: %zu %s\n\n",
              static_cast<unsigned long long>(reg.live_generation("bench")),
              1e3 * out.swap_window_s, out.errors,
              out.errors == 0 ? "(zero-downtime swap)" : "(SWAP DROPPED WORK)");
  return out;
}

int main_comparison(const HotSwapResult& hot) {
  Env& e = env();
  const auto n = static_cast<double>(e.trace.size());

  double serial_s = 0.0;
  const auto serial_metrics = replay_serial(serial_s);
  double batched_s = 0.0;
  const auto batched_metrics = replay_batched(batched_s);

  const bool identical =
      serial_metrics.size() == batched_metrics.size() &&
      std::memcmp(serial_metrics.data(), batched_metrics.data(),
                  serial_metrics.size() * sizeof(float)) == 0;
  std::printf("batched vs serial bit-identity: %s\n",
              identical ? "OK (bitwise equal)" : "FAILED — outputs diverge");

  serve::SurrogateBackend backend(*e.evaluator);
  serve::Service::Options opts;
  opts.batch.max_batch = kChunk;
  serve::Service service(backend, opts);
  // Requests arrive in windows (as a search loop would deliver them); the
  // cache carries answers across windows, dedup collapses repeats within one.
  constexpr std::size_t kWindow = 512;
  std::vector<serve::Response> served;
  served.reserve(e.trace.size());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t at = 0; at < e.trace.size(); at += kWindow) {
    const std::size_t hi = std::min(at + kWindow, e.trace.size());
    auto window = service.query_many(
        std::span<const serve::Request>(e.trace.data() + at, hi - at));
    served.insert(served.end(), window.begin(), window.end());
  }
  const double service_s = seconds_since(start);
  const auto stats = service.stats();

  // Served answers must also match the serial ground truth bitwise.
  bool service_identical = served.size() * 3 == serial_metrics.size();
  for (std::size_t i = 0; service_identical && i < served.size(); ++i) {
    const double lat = served[i].metrics.latency_ms;
    service_identical =
        static_cast<float>(lat) == serial_metrics[3 * i];
  }
  std::printf("cached+batched vs serial agreement: %s\n\n",
              service_identical ? "OK" : "FAILED — served answers diverge");

  // Degraded mode: the same stack, but the primary sees a 10% injected
  // error rate and the resilience decorator absorbs it (retry first, fall
  // back to the bare surrogate when retries run out). Backoff is zeroed so
  // the row prices the resilience machinery, not its sleeps.
  auto injector = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::parse("backend:error=0.1"), 0xFA17);
  fault::FaultyBackend faulty(backend, injector);
  serve::ResilientBackend::Options ropts;
  ropts.retries = 3;
  ropts.backoff_us = 0;
  serve::ResilientBackend resilient_backend(faulty, &backend, ropts);
  serve::Service resilient_service(resilient_backend, opts);
  std::size_t degraded = 0;
  const auto rstart = std::chrono::steady_clock::now();
  for (std::size_t at = 0; at < e.trace.size(); at += kWindow) {
    const std::size_t hi = std::min(at + kWindow, e.trace.size());
    auto window = resilient_service.query_many(
        std::span<const serve::Request>(e.trace.data() + at, hi - at));
    for (const auto& r : window) {
      if (r.degraded) ++degraded;
    }
  }
  const double resilient_s = seconds_since(rstart);
  const auto rstats = resilient_service.stats();
  const double degraded_rate = n > 0.0 ? static_cast<double>(degraded) / n : 0.0;
  std::printf("resilient replay under 10%% injected errors: retries=%llu "
              "degraded=%zu (%.2f%% of responses)\n\n",
              static_cast<unsigned long long>(resilient_backend.stats().retries),
              degraded, 100.0 * degraded_rate);

  util::Table table({"mode", "requests", "seconds", "QPS", "speedup", "hit rate"});
  const double serial_qps = n / serial_s;
  table.add_row({"serial forward", std::to_string(e.trace.size()),
                 util::Table::fmt(serial_s, 3), util::Table::fmt(serial_qps, 0),
                 "1.00", "-"});
  table.add_row({"batched forward", std::to_string(e.trace.size()),
                 util::Table::fmt(batched_s, 3),
                 util::Table::fmt(n / batched_s, 0),
                 util::Table::fmt(serial_s / batched_s, 2), "-"});
  table.add_row({"cached+batched", std::to_string(e.trace.size()),
                 util::Table::fmt(service_s, 3),
                 util::Table::fmt(n / service_s, 0),
                 util::Table::fmt(serial_s / service_s, 2),
                 util::Table::fmt(100.0 * stats.cache.hit_rate(), 1) + "%"});
  table.add_row({"resilient+10% faults", std::to_string(e.trace.size()),
                 util::Table::fmt(resilient_s, 3),
                 util::Table::fmt(n / resilient_s, 0),
                 util::Table::fmt(serial_s / resilient_s, 2),
                 util::Table::fmt(100.0 * rstats.cache.hit_rate(), 1) + "%"});
  table.add_row({"registry+hot swap", std::to_string(e.trace.size()),
                 util::Table::fmt(hot.seconds, 3),
                 util::Table::fmt(n / hot.seconds, 0),
                 util::Table::fmt(serial_s / hot.seconds, 2),
                 util::Table::fmt(100.0 * hot.hit_rate, 1) + "%"});
  std::printf("%s\n", table.to_string().c_str());
  std::fputs(service.stats_report().c_str(), stdout);

  const double combined_speedup = serial_s / service_s;
  std::printf("\ncached+batched speedup over naive serial: %.1fx %s\n",
              combined_speedup, combined_speedup >= 5.0 ? "(>= 5x target met)"
                                                        : "(below 5x target)");

  util::CsvWriter csv(bench::data_path("serve_throughput.csv"),
                      {"mode", "requests", "unique_keys", "seconds", "qps",
                       "speedup_vs_serial", "cache_hit_rate", "degraded_rate",
                       "swap_window_qps", "swap_window_p99_us",
                       "steady_p99_us"});
  const std::string nreq = std::to_string(e.trace.size());
  const std::string nuniq = std::to_string(e.unique_keys.size());
  csv.add_row({"serial", nreq, nuniq, util::Table::fmt(serial_s, 4),
               util::Table::fmt(serial_qps, 1), "1.0", "0", "0", "0", "0",
               "0"});
  csv.add_row({"batched", nreq, nuniq, util::Table::fmt(batched_s, 4),
               util::Table::fmt(n / batched_s, 1),
               util::Table::fmt(serial_s / batched_s, 2), "0", "0", "0", "0",
               "0"});
  csv.add_row({"cached_batched", nreq, nuniq, util::Table::fmt(service_s, 4),
               util::Table::fmt(n / service_s, 1),
               util::Table::fmt(combined_speedup, 2),
               util::Table::fmt(stats.cache.hit_rate(), 3), "0", "0", "0",
               "0"});
  csv.add_row({"resilient_faulted", nreq, nuniq,
               util::Table::fmt(resilient_s, 4),
               util::Table::fmt(n / resilient_s, 1),
               util::Table::fmt(serial_s / resilient_s, 2),
               util::Table::fmt(rstats.cache.hit_rate(), 3),
               util::Table::fmt(degraded_rate, 4), "0", "0", "0"});
  csv.add_row({"registry_hotswap", nreq, nuniq,
               util::Table::fmt(hot.seconds, 4),
               util::Table::fmt(n / hot.seconds, 1),
               util::Table::fmt(serial_s / hot.seconds, 2),
               util::Table::fmt(hot.hit_rate, 3), "0",
               util::Table::fmt(hot.swap_qps, 1),
               util::Table::fmt(hot.swap_p99_us, 2),
               util::Table::fmt(hot.steady_p99_us, 2)});
  csv.flush();
  std::printf("wrote %s\n\n", bench::data_path("serve_throughput.csv").c_str());
  return (identical && service_identical) ? 0 : 1;
}

// --- surrogate serving: autograd oracle vs the fused plan -------------------

struct TierRow {
  double seconds = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  std::vector<float> unique_metrics;  ///< [unique, 3], for the bit check
};

/// Replays the trace one request at a time through `answer` (single-query
/// latency is where the paths differ most — batching already amortizes the
/// autograd graph walk), then answers every unique key once, batched, into
/// `unique_metrics`. `answer(reqs, out)` appends [reqs.size(), 3] metrics.
template <typename Answer>
TierRow replay_tier(Answer&& answer) {
  Env& e = env();
  TierRow row;
  std::vector<float> sink;
  std::vector<double> lat;
  lat.reserve(e.trace.size());
  const auto start = std::chrono::steady_clock::now();
  for (const auto& req : e.trace) {
    const auto t0 = std::chrono::steady_clock::now();
    sink.clear();
    answer(std::span<const serve::Request>(&req, 1), sink);
    benchmark::DoNotOptimize(sink.data());
    lat.push_back(1e6 * seconds_since(t0));
  }
  row.seconds = seconds_since(start);
  std::sort(lat.begin(), lat.end());
  row.p50_us = lat[lat.size() / 2];
  row.p95_us = lat[std::min(lat.size() - 1, (lat.size() * 95) / 100)];

  std::vector<serve::Request> reqs;
  for (std::size_t at = 0; at < e.unique_keys.size(); at += kChunk) {
    const std::size_t hi = std::min(at + kChunk, e.unique_keys.size());
    reqs.clear();
    for (std::size_t i = at; i < hi; ++i) {
      reqs.push_back(serve::Request{e.unique_keys[i]});
    }
    answer(std::span<const serve::Request>(reqs), row.unique_metrics);
  }
  return row;
}

int main_tiers() {
  Env& e = env();
  const auto n = static_cast<double>(e.trace.size());

  const TierRow autograd = replay_tier(
      [&](std::span<const serve::Request> reqs, std::vector<float>& out) {
        std::vector<std::vector<float>> rows;
        rows.reserve(reqs.size());
        for (const auto& r : reqs) rows.push_back(r.encoding);
        const auto fwd = e.evaluator->forward_batch(rows);
        const float* m = fwd.metrics.value().data();
        out.insert(out.end(), m, m + 3 * reqs.size());
      });
  serve::SurrogateBackend backend(*e.evaluator);
  const TierRow fused = replay_tier(
      [&](std::span<const serve::Request> reqs, std::vector<float>& out) {
        for (const auto& r : backend.query_batch(reqs)) {
          out.push_back(static_cast<float>(r.metrics.latency_ms));
          out.push_back(static_cast<float>(r.metrics.energy_mj));
          out.push_back(static_cast<float>(r.metrics.area_mm2));
        }
      });
  const bool identical =
      autograd.unique_metrics.size() == fused.unique_metrics.size() &&
      std::memcmp(autograd.unique_metrics.data(), fused.unique_metrics.data(),
                  fused.unique_metrics.size() * sizeof(float)) == 0;

  util::Table table({"path", "seconds", "QPS", "p50 us", "p95 us",
                     "speedup", "bit-identical"});
  util::CsvWriter csv(bench::data_path("infer_tiers.csv"),
                      {"tier", "requests", "seconds", "qps", "p50_us",
                       "p95_us", "speedup_vs_autograd", "bit_identical"});
  const std::string nreq = std::to_string(e.trace.size());
  const auto add = [&](const char* name, const TierRow& r) {
    const std::string speedup = util::Table::fmt(autograd.seconds / r.seconds, 2);
    table.add_row({name, util::Table::fmt(r.seconds, 3),
                   util::Table::fmt(n / r.seconds, 0),
                   util::Table::fmt(r.p50_us, 1), util::Table::fmt(r.p95_us, 1),
                   speedup, identical ? "yes" : "NO"});
    csv.add_row({name, nreq, util::Table::fmt(r.seconds, 4),
                 util::Table::fmt(n / r.seconds, 1),
                 util::Table::fmt(r.p50_us, 2), util::Table::fmt(r.p95_us, 2),
                 speedup, identical ? "1" : "0"});
  };
  add("autograd", autograd);
  add("fused", fused);
  std::printf("%s\n", table.to_string().c_str());
  csv.flush();
  std::printf("wrote %s\n\n", bench::data_path("infer_tiers.csv").c_str());
  return identical ? 0 : 1;
}

// --- google-benchmark micros for the per-query primitives -------------------

// --- compiled cost-table artifacts: in-memory build vs mmap -----------------

long rss_kb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct ExactServeStats {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::vector<serve::Response> responses;
};

/// Single-query replay through an ExactBackend over `provider`; per-query
/// latency percentiles, and the responses for the bit-identity check.
ExactServeStats replay_exact(const arch::CostProvider& provider,
                             std::span<const serve::Request> reqs) {
  serve::ExactBackend backend(provider, accel::edap_cost());
  ExactServeStats st;
  st.responses.reserve(reqs.size());
  std::vector<double> lat_us;
  lat_us.reserve(reqs.size());
  const auto start = std::chrono::steady_clock::now();
  for (const auto& req : reqs) {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = backend.query_batch({&req, 1});
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
    st.responses.push_back(out[0]);
  }
  const double total_s = seconds_since(start);
  st.qps = static_cast<double>(reqs.size()) / total_s;
  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&](double q) {
    return lat_us[std::min(lat_us.size() - 1,
                           static_cast<std::size_t>(q * lat_us.size()))];
  };
  st.p50_us = pct(0.50);
  st.p99_us = pct(0.99);
  return st;
}

bool responses_bit_identical(const std::vector<serve::Response>& a,
                             const std::vector<serve::Response>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].metrics.latency_ms, &b[i].metrics.latency_ms,
                    sizeof(double)) != 0 ||
        std::memcmp(&a[i].metrics.energy_mj, &b[i].metrics.energy_mj,
                    sizeof(double)) != 0 ||
        std::memcmp(&a[i].metrics.area_mm2, &b[i].metrics.area_mm2,
                    sizeof(double)) != 0 ||
        !(a[i].config == b[i].config)) {
      return false;
    }
  }
  return true;
}

int main_cost_table() {
  Env& e = env();
  // The exact arg-min walks all ~14k configs per query; a short unique-key
  // replay is enough for stable percentiles.
  const int nq = std::min<int>(bench::scaled(128),
                               static_cast<int>(e.trace.size()));
  std::span<const serve::Request> reqs(e.trace.data(),
                                       static_cast<std::size_t>(nq));

  const auto timed_ms = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Row 1: in-memory build (the analytical path every shard used to pay at
  // startup).
  const accel::CostModel model;
  long rss0 = rss_kb();
  std::unique_ptr<arch::CostTable> mem_table;
  const double build_ms = timed_ms([&] {
    mem_table =
        std::make_unique<arch::CostTable>(e.arch_space, e.hw_space, model);
  });
  const long mem_rss_kb = rss_kb() - rss0;
  const ExactServeStats mem_stats = replay_exact(*mem_table, reqs);

  // Row 2: compile once to a DCTB artifact, then mmap it — the per-shard
  // startup cost drops to a load + checksum pass over shared pages.
  const std::string artifact = bench::data_path("cost_table.dctb");
  arch::save_cost_table(*mem_table, artifact);
  struct stat stbuf {};
  const long file_bytes = ::stat(artifact.c_str(), &stbuf) == 0
                              ? static_cast<long>(stbuf.st_size)
                              : -1;
  rss0 = rss_kb();
  std::unique_ptr<arch::MmapCostTable> mapped;
  const double load_ms =
      timed_ms([&] { mapped = arch::load_cost_table(artifact, e.arch_space); });
  const long map_rss_kb = rss_kb() - rss0;
  const ExactServeStats map_stats = replay_exact(*mapped, reqs);
  const bool identical =
      responses_bit_identical(mem_stats.responses, map_stats.responses);

  util::Table table({"source", "startup ms", "RSS delta KB", "file bytes",
                     "QPS", "p50 us", "p99 us"});
  table.add_row({"build", util::Table::fmt(build_ms, 1),
                 std::to_string(mem_rss_kb), "-",
                 util::Table::fmt(mem_stats.qps, 0),
                 util::Table::fmt(mem_stats.p50_us, 1),
                 util::Table::fmt(mem_stats.p99_us, 1)});
  table.add_row({"mmap (DCTB)", util::Table::fmt(load_ms, 1),
                 std::to_string(map_rss_kb), std::to_string(file_bytes),
                 util::Table::fmt(map_stats.qps, 0),
                 util::Table::fmt(map_stats.p50_us, 1),
                 util::Table::fmt(map_stats.p99_us, 1)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("mmap answers bit-identical to in-memory build: %s "
              "(checksum %016llx)\n",
              identical ? "yes" : "NO",
              static_cast<unsigned long long>(mapped->checksum()));

  util::CsvWriter csv(bench::data_path("cost_table.csv"),
                      {"source", "startup_ms", "rss_delta_kb",
                       "file_bytes", "queries", "qps", "p50_us", "p99_us",
                       "bit_identical"});
  const std::string nqs = std::to_string(nq);
  csv.add_row({"build", util::Table::fmt(build_ms, 2),
               std::to_string(mem_rss_kb), "0", nqs,
               util::Table::fmt(mem_stats.qps, 1),
               util::Table::fmt(mem_stats.p50_us, 2),
               util::Table::fmt(mem_stats.p99_us, 2), "1"});
  csv.add_row({"mmap", util::Table::fmt(load_ms, 2),
               std::to_string(map_rss_kb), std::to_string(file_bytes), nqs,
               util::Table::fmt(map_stats.qps, 1),
               util::Table::fmt(map_stats.p50_us, 2),
               util::Table::fmt(map_stats.p99_us, 2), identical ? "1" : "0"});
  csv.flush();
  std::printf("wrote %s\n\n", bench::data_path("cost_table.csv").c_str());
  return identical ? 0 : 1;
}

void BM_SerialForwardDeterministic(benchmark::State& state) {
  Env& e = env();
  tensor::Variable row(tensor::Tensor::from(
      {1, static_cast<int>(e.unique_keys[0].size())}, e.unique_keys[0]));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->forward_deterministic(row));
  }
}
BENCHMARK(BM_SerialForwardDeterministic)->Unit(benchmark::kMicrosecond);

void BM_ForwardBatch64(benchmark::State& state) {
  Env& e = env();
  std::vector<std::vector<float>> rows;
  for (int i = 0; i < kChunk; ++i) {
    rows.push_back(e.unique_keys[static_cast<std::size_t>(i) %
                                 e.unique_keys.size()]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->forward_batch(rows));
  }
  state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_ForwardBatch64)->Unit(benchmark::kMicrosecond);

void BM_ServiceQueryCacheHit(benchmark::State& state) {
  Env& e = env();
  static serve::SurrogateBackend backend(*e.evaluator);
  static serve::Service service(backend, [] {
    serve::Service::Options o;
    o.batch.max_batch = 1;  // inline: isolate the cache-hit path
    return o;
  }());
  const serve::Request req{e.unique_keys[0]};
  (void)service.query(req);  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.query(req));
  }
}
BENCHMARK(BM_ServiceQueryCacheHit)->Unit(benchmark::kMicrosecond);

void BM_CacheGetHit(benchmark::State& state) {
  Env& e = env();
  serve::LruCache cache(1024);
  const auto key = serve::canonical_key(e.unique_keys[0]);
  cache.put(key, serve::Response{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(key));
  }
}
BENCHMARK(BM_CacheGetHit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  if (dance::util::env_string("DANCE_BENCH_ONLY", "") == "costtable") {
    std::printf("== exact ground truth: in-memory CostTable vs mmap DCTB "
                "artifact ==\n\n");
    return main_cost_table();
  }
  std::printf("== dance::serve throughput: serial vs batched vs cached+batched "
              "==\n");
  std::printf("trace: %d requests over %d unique keys (~87%% repeats), "
              "chunk/max_batch %d, window 512.\n\n",
              dance::bench::scaled(10000),
              std::max(1, dance::bench::scaled(10000) / 8), kChunk);
  std::printf("== registry hot swap under load: publish at the halfway mark "
              "==\n");
  std::printf("pinned single-query replay; swap window = publish + 50 ms "
              "re-warm.\n\n");
  const HotSwapResult hot = run_hotswap();
  const int rc = main_comparison(hot);
  std::printf("== surrogate serving: autograd oracle vs fused plan ==\n");
  std::printf("single-query replay of the same trace per path; bit-identity "
              "checked over every unique key.\n\n");
  const int tier_rc = main_tiers();
  std::printf("== exact ground truth: in-memory CostTable vs mmap DCTB "
              "artifact ==\n\n");
  const int ct_rc = main_cost_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rc != 0 ? rc : (tier_rc != 0 ? tier_rc : ct_rc);
}

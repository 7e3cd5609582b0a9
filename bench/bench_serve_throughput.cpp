// dance::serve throughput: what does the service layer buy over calling the
// evaluator directly?
//
// Replays a 10k-request trace (scaled by DANCE_BENCH_SCALE) with a unique-key
// pool of N/8 — i.e. ~87% of requests repeat an earlier key, the regime a
// NAS search loop produces when candidate architectures recur across
// iterations. Three ways to answer the same trace:
//   serial          one Evaluator::forward_deterministic per request
//   batched         Evaluator::forward_batch in 64-row chunks
//   cached+batched  Service::query_many in 512-request arrival windows
//                   (LRU across windows + within-call dedup + one
//                   batched backend call per window)
// Expected shape: batching amortizes per-call overhead for a low-single-digit
// multiple; the cache turns the ~75% repeats into lookups for >=5x combined.
// The serial and batched answers are checked bit-identical first — the
// deterministic-inference contract that makes the comparison meaningful.
// Each mode is replayed kRuns times (the cached mode on a fresh, cold
// Service each time) and the median, min and max wall times are recorded:
// the cached row is short enough that one run mostly measures host load.
//
// Prints an ASCII table, writes bench/data/serve_throughput.csv, and runs
// google-benchmark micros for the per-query primitives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "evalnet/evaluator.h"
#include "serve/backend.h"
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

constexpr int kChunk = 64;  ///< batched-mode slice

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

/// Cached+batched replay: a fresh Service (cold cache) over `backend`,
/// answering the trace in 512-request arrival windows, as a search loop
/// would deliver them. The cache carries answers across windows, dedup
/// collapses repeats within one.
std::vector<serve::Response> replay_cached(serve::CostQueryBackend& backend,
                                           double& seconds,
                                           double& hit_rate) {
  Env& e = env();
  serve::Service service(backend, serve::Service::Options{});
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
  seconds = seconds_since(start);
  hit_rate = service.stats().cache.hit_rate();
  return served;
}

constexpr int kRuns = 5;  ///< replays per mode; odd, so the median is a run

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return {seconds[seconds.size() / 2], seconds.front(), seconds.back()};
}

int main_comparison() {
  Env& e = env();
  const auto n = static_cast<double>(e.trace.size());
  serve::SurrogateBackend backend(*e.evaluator);

  std::vector<double> serial_runs, batched_runs, cached_runs;
  std::vector<float> serial_metrics, batched_metrics;
  std::vector<serve::Response> served;
  double hit_rate = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    double s = 0.0;
    serial_metrics = replay_serial(s);
    serial_runs.push_back(s);
    batched_metrics = replay_batched(s);
    batched_runs.push_back(s);
    served = replay_cached(backend, s, hit_rate);
    cached_runs.push_back(s);
  }

  const bool identical =
      serial_metrics.size() == batched_metrics.size() &&
      std::memcmp(serial_metrics.data(), batched_metrics.data(),
                  serial_metrics.size() * sizeof(float)) == 0;
  std::printf("batched vs serial bit-identity: %s\n",
              identical ? "OK (bitwise equal)" : "FAILED — outputs diverge");

  // Served answers must also match the serial ground truth bitwise.
  bool service_identical = served.size() * 3 == serial_metrics.size();
  for (std::size_t i = 0; service_identical && i < served.size(); ++i) {
    const double lat = served[i].metrics.latency_ms;
    service_identical =
        static_cast<float>(lat) == serial_metrics[3 * i];
  }
  std::printf("cached+batched vs serial agreement: %s\n\n",
              service_identical ? "OK" : "FAILED — served answers diverge");

  const Spread serial = spread(serial_runs);
  const Spread batched = spread(batched_runs);
  const Spread cached = spread(cached_runs);
  const std::string nreq = std::to_string(e.trace.size());
  const std::string nuniq = std::to_string(e.unique_keys.size());
  const std::string runs = std::to_string(kRuns);
  util::Table table({"mode", "requests", "median s", "min s", "max s",
                     "QPS", "speedup", "hit rate"});
  util::CsvWriter csv(bench::data_path("serve_throughput.csv"),
                      {"mode", "requests", "unique_keys", "runs",
                       "seconds_median", "seconds_min", "seconds_max", "qps",
                       "speedup_vs_serial", "cache_hit_rate"});
  // QPS and speedup are taken at the medians.
  const auto add = [&](const char* label, const char* mode, const Spread& t,
                       const std::string& hits, const std::string& hits_csv) {
    table.add_row({label, nreq, util::Table::fmt(t.median, 4),
                   util::Table::fmt(t.min, 4), util::Table::fmt(t.max, 4),
                   util::Table::fmt(n / t.median, 0),
                   util::Table::fmt(serial.median / t.median, 2), hits});
    csv.add_row({mode, nreq, nuniq, runs, util::Table::fmt(t.median, 4),
                 util::Table::fmt(t.min, 4), util::Table::fmt(t.max, 4),
                 util::Table::fmt(n / t.median, 1),
                 util::Table::fmt(serial.median / t.median, 2), hits_csv});
  };
  add("serial forward", "serial", serial, "-", "0");
  add("batched forward", "batched", batched, "-", "0");
  add("cached+batched", "cached_batched", cached,
      util::Table::fmt(100.0 * hit_rate, 1) + "%",
      util::Table::fmt(hit_rate, 3));
  std::printf("%s\n", table.to_string().c_str());

  const double combined_speedup = serial.median / cached.median;
  std::printf("\ncached+batched speedup over naive serial (medians of %d "
              "runs): %.1fx %s\n",
              kRuns, combined_speedup,
              combined_speedup >= 5.0 ? "(>= 5x target met)"
                                      : "(below 5x target)");
  csv.flush();
  std::printf("wrote %s\n\n", bench::data_path("serve_throughput.csv").c_str());
  return (identical && service_identical) ? 0 : 1;
}

// --- google-benchmark micros for the per-query primitives -------------------

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
  static serve::Service service(backend, serve::Service::Options{});
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
  std::printf("== dance::serve throughput: serial vs batched vs cached+batched "
              "==\n");
  std::printf("trace: %d requests over %d unique keys (~87%% repeats), "
              "chunk %d, window 512.\n\n",
              dance::bench::scaled(10000),
              std::max(1, dance::bench::scaled(10000) / 8), kChunk);
  const int rc = main_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rc;
}

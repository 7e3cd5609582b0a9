// Open-loop load generator for the sharded serve cluster.
//
// Spins up N in-process shard servers (exact backend, --small hardware
// space) on unix sockets, then drives them with Poisson arrivals at a sweep
// of target QPS points, measuring client-observed latency from each
// request's *scheduled* arrival time — the open-loop discipline, so queueing
// delay shows up in p99 instead of silently throttling the offered load.
//
// Routing is client-side by default: every load thread embeds the same
// consistent-hash ring the Router uses and dials shards directly (a
// legitimate production topology — the ring is a pure function of the shard
// set, so clients and routers always agree). A router-relay sweep would add
// one hop; the direct sweep isolates shard capacity.
//
// Two workloads per shard count:
//   cached  P unique keys replayed (the NAS search-loop regime) — after a
//           warmup pass every query is a cache hit; per-request cost is
//           parse + cache probe + socket turnaround.
//   miss    every request a fresh key — each query goes through the
//           shard Service's backend mutex, which lets one call at a time
//           into the backend, so a shard's capacity is one backend's and
//           scales with the shard count when there are free cores.
//
// Writes bench/data/cluster_load.csv:
//   workload,shards,target_qps,achieved_qps,p50_us,p99_us
// and prints the 2-shard/1-shard aggregate ratio at the top target (the
// >=2x scaling check; CPU-bound workloads need >= 2 free cores to show it).
//
// DANCE_BENCH_SCALE scales the per-point durations and the target sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "arch/cost_table.h"
#include "cluster/ring.h"
#include "cluster/shard.h"
#include "net/client.h"
#include "serve/service.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace dance;
using Clock = std::chrono::steady_clock;

constexpr int kClientThreads = 8;
constexpr int kCachedKeyPool = 256;

double us_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// One in-process shard: exact backend over the tiny hardware space (the
/// CI-smoke configuration) behind a ShardServer on a unix socket.
struct Shard {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space = hwgen::HwSearchSpace::small();
  arch::CostTable table{arch_space, hw_space, accel::CostModel{}};
  serve::ExactBackend backend{table};
  serve::Service service;
  cluster::ShardServer server;
  net::Endpoint endpoint;

  explicit Shard(int id)
      : service(backend),
        server(service, arch_space, net::Server::Options{}) {
    const std::string path = "/tmp/dance_bench_" + std::to_string(getpid()) +
                             "_shard" + std::to_string(id) + ".sock";
    endpoint = server.start(net::Endpoint::unix_path(path));
  }
};

/// Pre-rendered request lines ("arch" form: short payloads) plus the shard
/// each one routes to under the ring — computed once, not per send.
struct Workload {
  std::vector<std::string> lines;
  std::vector<int> shard_of;
};

Workload make_workload(const arch::ArchSpace& space, const cluster::HashRing& ring,
                       std::size_t n, std::size_t unique_pool,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t pool = std::min(n, unique_pool);
  std::vector<std::string> pool_lines;
  std::vector<int> pool_shard;
  pool_lines.reserve(pool);
  for (std::size_t k = 0; k < pool; ++k) {
    const arch::Architecture a = space.random(rng);
    std::string line = "{\"id\": " + std::to_string(k) + ", \"arch\": [";
    for (std::size_t s = 0; s < a.size(); ++s) {
      if (s > 0) line += ", ";
      line += std::to_string(static_cast<int>(a[s]));
    }
    line += "]}";
    pool_lines.push_back(std::move(line));
    pool_shard.push_back(
        ring.lookup_key(serve::canonical_key(space.encode(a))));
  }
  Workload w;
  w.lines.reserve(n);
  w.shard_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(
        rng.randint(0, static_cast<int>(pool) - 1));
    w.lines.push_back(pool_lines[k]);
    w.shard_of.push_back(pool_shard[k]);
  }
  return w;
}

struct SweepPoint {
  double target_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// One open-loop run: Poisson arrivals at `target_qps` for ~`seconds`.
/// Client threads share the schedule through an atomic cursor; each thread
/// keeps one connection per shard (direct ring routing).
SweepPoint run_point(const std::vector<std::unique_ptr<Shard>>& shards,
                     const Workload& w, double target_qps, double seconds,
                     std::uint64_t seed) {
  const auto n = std::min<std::size_t>(
      w.lines.size(), static_cast<std::size_t>(target_qps * seconds));
  // Arrival schedule: cumulative exponential inter-arrivals (rate = target).
  std::vector<double> arrival_us(n);
  {
    std::mt19937_64 gen(seed);
    std::exponential_distribution<double> exp(target_qps / 1e6);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += exp(gen);
      arrival_us[i] = t;
    }
  }

  std::atomic<std::size_t> cursor{0};
  std::vector<double> latency_us(n, 0.0);
  std::atomic<std::uint64_t> errors{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);

  auto client_thread = [&]() {
    std::vector<std::unique_ptr<net::Client>> conns;
    conns.reserve(shards.size());
    net::Client::Options copts;
    copts.retries = 3;
    copts.backoff_us = 200;
    for (const auto& s : shards) {
      conns.push_back(std::make_unique<net::Client>(s->endpoint, copts));
    }
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const auto sched =
          start + std::chrono::microseconds(
                      static_cast<std::int64_t>(arrival_us[i]));
      std::this_thread::sleep_until(sched);  // no-op once we fall behind
      try {
        const std::string& response =
            conns[static_cast<std::size_t>(w.shard_of[i])]->roundtrip(
                w.lines[i]);
        benchmark::DoNotOptimize(response);
        latency_us[i] = us_since(sched, Clock::now());
      } catch (const net::NetError&) {
        errors.fetch_add(1, std::memory_order_relaxed);
        latency_us[i] = -1.0;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) threads.emplace_back(client_thread);
  for (auto& t : threads) t.join();
  const double wall_s = us_since(start, Clock::now()) / 1e6;

  SweepPoint p;
  p.target_qps = target_qps;
  std::vector<double> ok;
  ok.reserve(n);
  for (double l : latency_us) {
    if (l >= 0.0) ok.push_back(l);
  }
  p.achieved_qps = wall_s > 0.0 ? static_cast<double>(ok.size()) / wall_s : 0.0;
  if (!ok.empty()) {
    std::sort(ok.begin(), ok.end());
    p.p50_us = ok[ok.size() / 2];
    p.p99_us = ok[std::min(ok.size() - 1, (ok.size() * 99) / 100)];
  }
  if (errors.load() > 0) {
    std::printf("    (%llu transport errors)\n",
                static_cast<unsigned long long>(errors.load()));
  }
  return p;
}

void BM_ClusterRoundtripCached(benchmark::State& state) {
  Shard shard(99);
  net::Client client(shard.endpoint);
  const std::string line = "{\"id\": 0, \"arch\": [0, 1, 2, 3, 4, 5, 6, 0, 1]}";
  benchmark::DoNotOptimize(client.roundtrip(line));  // warm the cache entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.roundtrip(line));
  }
  shard.server.drain_and_stop();
}
BENCHMARK(BM_ClusterRoundtripCached)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::scale();
  const double seconds = 1.0 * scale;
  const std::vector<double> targets = {1000, 2000, 4000, 8000, 16000};

  std::printf("== cluster load: open-loop Poisson sweep, direct ring routing "
              "==\n");
  std::printf("%d client threads, %.1fs per point, unix sockets, exact "
              "backend (small space), %ld cores\n\n",
              kClientThreads, seconds, sysconf(_SC_NPROCESSORS_ONLN));

  util::CsvWriter csv(bench::data_path("cluster_load.csv"),
                      {"workload", "shards", "target_qps", "achieved_qps",
                       "p50_us", "p99_us"});
  util::Table table(
      {"workload", "shards", "target QPS", "achieved QPS", "p50 us", "p99 us"});

  // Capacity = highest target sustained with p99 under the bound (the usual
  // saturation definition for open-loop sweeps: past capacity the backlog
  // grows without bound and p99 explodes). Indexed [workload][shards].
  constexpr double kSustainedP99Us = 10000.0;
  double capacity[2][3] = {{0.0}};

  for (const char* workload : {"cached", "miss"}) {
    const bool cached = std::string(workload) == "cached";
    for (int num_shards : {1, 2}) {
      std::vector<std::unique_ptr<Shard>> shards;
      std::vector<int> ids;
      for (int s = 0; s < num_shards; ++s) {
        shards.push_back(std::make_unique<Shard>(s));
        ids.push_back(s);
      }
      const cluster::HashRing ring(ids);
      const auto max_n = static_cast<std::size_t>(targets.back() * seconds);
      const Workload w = make_workload(
          shards[0]->arch_space, ring, max_n,
          cached ? kCachedKeyPool : max_n, /*seed=*/41);
      if (cached) {
        // Warmup pass over the pool so the timed runs are pure cache hits.
        net::Client::Options copts;
        std::vector<std::unique_ptr<net::Client>> conns;
        for (const auto& s : shards) {
          conns.push_back(std::make_unique<net::Client>(s->endpoint, copts));
        }
        for (std::size_t i = 0; i < std::min<std::size_t>(w.lines.size(),
                                                          kCachedKeyPool * 4);
             ++i) {
          (void)conns[static_cast<std::size_t>(w.shard_of[i])]->roundtrip(
              w.lines[i]);
        }
      }
      for (double target : targets) {
        if (!cached) {
          // Fresh cache per point so every request stays a miss.
          for (const auto& s : shards) s->service.cache()->clear();
        }
        const SweepPoint p =
            run_point(shards, w, target, seconds, /*seed=*/7 + num_shards);
        std::printf("  %s shards=%d target=%.0f achieved=%.0f p50=%.0fus "
                    "p99=%.0fus\n",
                    workload, num_shards, p.target_qps, p.achieved_qps,
                    p.p50_us, p.p99_us);
        table.add_row({workload, std::to_string(num_shards),
                       util::Table::fmt(p.target_qps, 0),
                       util::Table::fmt(p.achieved_qps, 0),
                       util::Table::fmt(p.p50_us, 1),
                       util::Table::fmt(p.p99_us, 1)});
        csv.add_row({workload, std::to_string(num_shards),
                     util::Table::fmt(p.target_qps, 0),
                     util::Table::fmt(p.achieved_qps, 1),
                     util::Table::fmt(p.p50_us, 2),
                     util::Table::fmt(p.p99_us, 2)});
        if (p.p99_us <= kSustainedP99Us &&
            p.achieved_qps >= 0.9 * p.target_qps) {
          capacity[cached ? 0 : 1][num_shards] = std::max(
              capacity[cached ? 0 : 1][num_shards], p.achieved_qps);
        }
      }
      for (const auto& s : shards) s->server.drain_and_stop();
    }
  }
  csv.flush();
  std::printf("\n%s\n", table.to_string().c_str());

  for (int wl = 0; wl < 2; ++wl) {
    const char* name = wl == 0 ? "cached" : "miss";
    const double ratio =
        capacity[wl][1] > 0.0 ? capacity[wl][2] / capacity[wl][1] : 0.0;
    std::printf("%s workload: sustained capacity (p99 <= %.0fms) 1 shard = "
                "%.0f QPS, 2 shards = %.0f QPS -> %.2fx %s\n",
                name, kSustainedP99Us / 1000.0, capacity[wl][1],
                capacity[wl][2], ratio,
                ratio >= 2.0 ? "(>= 2x scaling met)"
                             : "(below 2x — CPU-bound workloads need >= 2 "
                               "free cores to show shard scaling)");
  }
  std::printf("wrote %s\n\n", bench::data_path("cluster_load.csv").c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// Property suite 5: concurrency safety of the dance::obs registry.
//
//  * obs_concurrent — randomized fleets of threads hammer one counter and
//    one histogram; afterwards the instruments must agree exactly with a
//    serial oracle (totals, per-bucket counts, min/max, sum). Sample values
//    are multiples of 0.5, which add exactly in double no matter the
//    interleaving, so even `sum` is compared bit-for-bit. With more
//    threads than histogram shards, the merged snapshot (percentiles too)
//    must equal a histogram fed the same values from one thread.
//
// Suite names carry a lowercase "obs" so `ctest -R obs` selects these
// alongside the unit suites in test_obs.cpp; CI runs them under TSan, which
// is where the relaxed-atomic and mutex paths earn their keep.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/span.h"
#include "testing/property.h"
#include "util/stats.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

/// One randomized stress plan: `threads` workers, each observing its own
/// slice of `per_thread` values derived from the trial seed.
struct Plan {
  int threads = 2;
  int per_thread = 64;
  std::uint64_t seed = 0;
};

testing_::Generator<Plan> plan_generator() {
  testing_::Generator<Plan> gen;
  gen.sample = [](util::Rng& rng) {
    Plan p;
    p.threads = rng.randint(2, 8);
    p.per_thread = rng.randint(1, 256);
    p.seed = rng.engine()();
    return p;
  };
  gen.show = [](const Plan& p) {
    std::ostringstream os;
    os << "{threads=" << p.threads << ", per_thread=" << p.per_thread
       << ", seed=0x" << std::hex << p.seed << "}";
    return os.str();
  };
  return gen;
}

/// The value thread t observes at step i: deterministic, exactly
/// representable (multiple of 0.5), spread across the bucket bounds.
double planned_value(const Plan& p, int t, int i) {
  const std::uint64_t h = testing_::mix_seed(
      p.seed, static_cast<std::uint64_t>(t) * 100003ULL +
                  static_cast<std::uint64_t>(i));
  return 0.5 * static_cast<double>(h % 41);  // 0.0 .. 20.0 step 0.5
}

TEST(obs_concurrent, CounterAndHistogramMatchSerialOracle) {
  static int unique_id = 0;
  const auto result = testing_::check<Plan>(
      "obs_concurrent_matches_oracle", plan_generator(),
      [](const Plan& p, util::Rng&) -> std::string {
        // Fresh instruments per trial: registry names are process-global.
        const std::string tag = "test.pbt.obs." + std::to_string(unique_id++);
        auto& reg = obs::Registry::global();
        obs::Counter& counter = reg.counter(tag + ".counter");
        obs::Histogram& hist =
            reg.histogram(tag + ".hist", {2.0, 5.0, 10.0, 15.0});

        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(p.threads));
        for (int t = 0; t < p.threads; ++t) {
          workers.emplace_back([&, t] {
            obs::ScopedSpan span("pbt.obs.worker");
            for (int i = 0; i < p.per_thread; ++i) {
              counter.inc();
              hist.observe(planned_value(p, t, i));
            }
          });
        }
        for (auto& w : workers) w.join();

        // Serial oracle over the same planned values.
        std::uint64_t n = 0;
        double sum = 0.0;
        double mn = 0.0;
        double mx = 0.0;
        std::vector<std::uint64_t> buckets(5, 0);  // 4 bounds + Inf
        const double bounds[4] = {2.0, 5.0, 10.0, 15.0};
        for (int t = 0; t < p.threads; ++t) {
          for (int i = 0; i < p.per_thread; ++i) {
            const double v = planned_value(p, t, i);
            ++n;
            sum += v;
            mn = (n == 1) ? v : std::min(mn, v);
            mx = (n == 1) ? v : std::max(mx, v);
            std::size_t b = 4;
            for (std::size_t k = 0; k < 4; ++k) {
              if (v <= bounds[k]) { b = k; break; }
            }
            ++buckets[b];
          }
        }

        const std::uint64_t got_count = counter.value();
        const auto s = hist.snapshot();
        std::ostringstream err;
        if (got_count != n) {
          err << "counter=" << got_count << " want " << n << "; ";
        }
        if (s.count != n) err << "hist count=" << s.count << " want " << n << "; ";
        if (s.sum != sum) err << "hist sum=" << s.sum << " want " << sum << "; ";
        if (s.min != mn) err << "hist min=" << s.min << " want " << mn << "; ";
        if (s.max != mx) err << "hist max=" << s.max << " want " << mx << "; ";
        // Snapshot buckets are cumulative; the oracle's are per-bucket.
        std::uint64_t cum = 0;
        for (std::size_t k = 0; k < buckets.size(); ++k) {
          cum += buckets[k];
          if (s.buckets.size() <= k || s.buckets[k] != cum) {
            err << "bucket[" << k << "] mismatch; ";
            break;
          }
        }
        return err.str();
      });
  EXPECT_TRUE(result.ok) << result.report;
}

TEST(obs_concurrent, HistogramShardsMergeToSerialOracle) {
  // More writers than shards, so some shards take two threads. Each thread
  // stays under the per-thread sample cap, so every sample survives and
  // the merged percentiles must equal the serial oracle's.
  constexpr int kThreads = 12;
  static_assert(kThreads > static_cast<int>(obs::kHistogramShards));
  constexpr int kPerThread = 300;
  static_assert(kThreads * kPerThread <= obs::kHistogramSampleCap);
  const Plan plan{kThreads, kPerThread, 0x5eed0b5ULL};
  const std::vector<double> bounds = {2.0, 5.0, 10.0, 15.0};
  obs::Histogram hist(bounds);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(planned_value(plan, t, i));
      }
    });
  }
  for (auto& w : workers) w.join();

  obs::Histogram serial(bounds);
  std::vector<double> all;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      serial.observe(planned_value(plan, t, i));
      all.push_back(planned_value(plan, t, i));
    }
  }
  const auto got = hist.snapshot();
  const auto want = serial.snapshot();
  EXPECT_EQ(got.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);  // multiples of 0.5: exact in any order
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.buckets, want.buckets);
  EXPECT_EQ(got.buckets.back(), got.count);
  EXPECT_EQ(got.p50, util::percentile(all, 50.0));
  EXPECT_EQ(got.p95, util::percentile(all, 95.0));
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p95, want.p95);

  hist.reset();
  const auto zeroed = hist.snapshot();
  EXPECT_EQ(zeroed.count, 0U);
  EXPECT_EQ(zeroed.buckets.back(), 0U);
  EXPECT_EQ(zeroed.p50, 0.0);
}

TEST(obs_concurrent, SpansFromManyThreadsAllSurface) {
  obs::clear_spans();
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] { obs::ScopedSpan span("pbt.obs.span_fanout"); });
  }
  for (auto& w : workers) w.join();
  int seen = 0;
  for (const auto& s : obs::recent_spans()) {
    if (s.name == "pbt.obs.span_fanout") ++seen;
  }
  // Each thread has its own ring, so none of the 8 can evict another's span.
  EXPECT_EQ(seen, kThreads);
  obs::clear_spans();
}

}  // namespace

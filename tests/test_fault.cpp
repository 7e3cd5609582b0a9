// Unit tests for the dance::fault injection layer and the serve-side
// resilience decorator: spec parsing, seeded injector determinism, the
// chaos backend wrapper, retry/fallback/breaker/deadline behavior, and the
// 10k-query replay acceptance check (10% injected errors, zero
// caller-visible exceptions, exact-path answers bit-identical to a
// fault-free run). Suite names carry a lowercase "fault" prefix on
// purpose: `ctest -R fault` selects these plus the fault property suites,
// which CI runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "accel/cost_function.h"
#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "evalnet/evaluator.h"
#include "fault/fault.h"
#include "fault/faulty_backend.h"
#include "runtime/thread_pool.h"
#include "serve/backend.h"
#include "serve/resilient.h"
#include "serve/service.h"
#include "util/rng.h"

namespace {

using namespace dance;
using serve::Request;
using serve::Response;

// --- FaultSpec parsing ------------------------------------------------------

TEST(fault_spec, ClauseWithoutSitePrefixTargetsBackend) {
  const auto spec = fault::FaultSpec::parse("error=0.25");
  ASSERT_EQ(spec.sites.size(), 1U);
  ASSERT_TRUE(spec.sites.count(fault::kBackendSite));
  EXPECT_DOUBLE_EQ(spec.sites.at(fault::kBackendSite).error_rate, 0.25);
  EXPECT_TRUE(spec.active_at(fault::kBackendSite));
  EXPECT_FALSE(spec.active_at(fault::kPoolSite));
}

TEST(fault_spec, ParsesMultiSiteMultiKindClauses) {
  const auto spec = fault::FaultSpec::parse(
      " backend: error=0.1 , latency=0.5:2000 ; pool: hang=1:500 ");
  ASSERT_EQ(spec.sites.size(), 2U);
  const auto& backend = spec.sites.at("backend");
  EXPECT_DOUBLE_EQ(backend.error_rate, 0.1);
  EXPECT_DOUBLE_EQ(backend.latency_rate, 0.5);
  EXPECT_EQ(backend.latency_us, 2000);
  const auto& pool = spec.sites.at("pool");
  EXPECT_DOUBLE_EQ(pool.hang_rate, 1.0);
  EXPECT_EQ(pool.hang_us, 500);
  EXPECT_TRUE(spec.active_at(fault::kPoolSite));
}

TEST(fault_spec, TimedKindsDefaultTheirDurations) {
  const auto spec = fault::FaultSpec::parse("latency=0.5,hang=0.25");
  const auto& s = spec.sites.at("backend");
  EXPECT_EQ(s.latency_us, 1000);   // documented default
  EXPECT_EQ(s.hang_us, 50000);     // documented default
  EXPECT_DOUBLE_EQ(s.latency_rate, 0.5);
  EXPECT_DOUBLE_EQ(s.hang_rate, 0.25);
}

TEST(fault_spec, MalformedSpecsThrowInsteadOfDegrading) {
  EXPECT_THROW((void)fault::FaultSpec::parse("error=1.5"),
               std::invalid_argument);  // rate out of [0, 1]
  EXPECT_THROW((void)fault::FaultSpec::parse("error=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::FaultSpec::parse("explode=0.5"),
               std::invalid_argument);  // unknown kind
  EXPECT_THROW((void)fault::FaultSpec::parse("error"),
               std::invalid_argument);  // missing '='
  EXPECT_THROW((void)fault::FaultSpec::parse("latency=0.5:-3"),
               std::invalid_argument);  // non-positive duration
  EXPECT_THROW((void)fault::FaultSpec::parse(":error=0.1"),
               std::invalid_argument);  // empty site name
}

TEST(fault_spec, EmptyAndWhitespaceSpecsParseEmpty) {
  EXPECT_TRUE(fault::FaultSpec::parse("").empty());
  EXPECT_TRUE(fault::FaultSpec::parse(" ; ; ").empty());
}

// --- FaultInjector ----------------------------------------------------------

/// Visits `site` n times and records which visits threw.
std::vector<bool> fault_pattern(fault::FaultInjector& injector,
                                const std::string& site, int n) {
  std::vector<bool> pattern;
  pattern.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bool threw = false;
    try {
      injector.at(site);
    } catch (const fault::InjectedFault&) {
      threw = true;
    }
    pattern.push_back(threw);
  }
  return pattern;
}

TEST(fault_injector, SameSeedReplaysTheSameFaultSequence) {
  const auto spec = fault::FaultSpec::parse("error=0.5");
  fault::FaultInjector a(spec, 0xFA17);
  fault::FaultInjector b(spec, 0xFA17);
  const auto pa = fault_pattern(a, fault::kBackendSite, 200);
  const auto pb = fault_pattern(b, fault::kBackendSite, 200);
  EXPECT_EQ(pa, pb);
  EXPECT_GT(a.stats().errors, 0U);
  EXPECT_EQ(a.stats().errors, b.stats().errors);
  EXPECT_EQ(a.stats().visits, 200U);
}

TEST(fault_injector, DifferentSeedsProduceDifferentSequences) {
  const auto spec = fault::FaultSpec::parse("error=0.5");
  fault::FaultInjector a(spec, 1);
  fault::FaultInjector b(spec, 2);
  EXPECT_NE(fault_pattern(a, fault::kBackendSite, 200),
            fault_pattern(b, fault::kBackendSite, 200));
}

TEST(fault_injector, ErrorRateIsRoughlyRespected) {
  fault::FaultInjector injector(fault::FaultSpec::parse("error=0.5"), 7);
  const auto pattern = fault_pattern(injector, fault::kBackendSite, 1000);
  const auto errors = injector.stats().errors;
  EXPECT_GT(errors, 350U);
  EXPECT_LT(errors, 650U);
  (void)pattern;
}

TEST(fault_injector, UnconfiguredSiteIsANoOp) {
  fault::FaultInjector injector(fault::FaultSpec::parse("error=1"), 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NO_THROW(injector.at("some-other-site"));
  }
  EXPECT_EQ(injector.stats().visits, 0U);
  EXPECT_EQ(injector.stats().errors, 0U);
}

TEST(fault_injector, LatencyInjectionSleepsForTheConfiguredSpike) {
  fault::FaultInjector injector(
      fault::FaultSpec::parse("latency=1:20000"), 7);
  const auto start = std::chrono::steady_clock::now();
  injector.at(fault::kBackendSite);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 15000);  // rate 1.0: the spike always fires
  EXPECT_EQ(injector.stats().latency_spikes, 1U);
  EXPECT_EQ(injector.stats().errors, 0U);
}

// --- Test backends ----------------------------------------------------------

/// Deterministic echo: latency = sum of the encoding + a fixed offset (the
/// offset distinguishes primary answers from fallback answers).
class EchoBackend : public serve::CostQueryBackend {
 public:
  explicit EchoBackend(double offset = 0.0) : offset_(offset) {}
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    std::vector<Response> out;
    out.reserve(requests.size());
    for (const Request& r : requests) {
      double sum = offset_;
      for (float v : r.encoding) sum += v;
      Response resp;
      resp.metrics.latency_ms = sum;
      out.push_back(resp);
    }
    return out;
  }
  const char* name() const override { return "echo"; }
  [[nodiscard]] int calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  double offset_;
  std::atomic<int> calls_{0};
};

/// Fails its first `fail_first` calls with a transient error, then answers
/// like EchoBackend. fail_first = INT_MAX makes it always fail.
class FlakyBackend : public serve::CostQueryBackend {
 public:
  explicit FlakyBackend(int fail_first) : fail_first_(fail_first) {}
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    const int call = calls_.fetch_add(1, std::memory_order_relaxed);
    if (call < fail_first_) throw std::runtime_error("flaky: transient");
    return echo_.query_batch(requests);
  }
  const char* name() const override { return "flaky"; }
  [[nodiscard]] int calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  int fail_first_;
  std::atomic<int> calls_{0};
  EchoBackend echo_;
};

/// Answers like EchoBackend after a fixed sleep — for deadline tests.
class SlowBackend : public serve::CostQueryBackend {
 public:
  explicit SlowBackend(long sleep_us) : sleep_us_(sleep_us) {}
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    return echo_.query_batch(requests);
  }
  const char* name() const override { return "slow"; }

 private:
  long sleep_us_;
  EchoBackend echo_;
};

class PermanentErrorBackend : public serve::CostQueryBackend {
 public:
  std::vector<Response> query_batch(std::span<const Request>) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    throw std::invalid_argument("permanent: malformed request");
  }
  const char* name() const override { return "permanent"; }
  [[nodiscard]] int calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> calls_{0};
};

serve::ResilientBackend::Options fast_resilience() {
  serve::ResilientBackend::Options opts;
  opts.backoff_us = 0;  // unit tests measure logic, not sleeps
  return opts;
}

// --- FaultyBackend ----------------------------------------------------------

TEST(fault_backend, ZeroRatesPassThroughBitIdentical) {
  EchoBackend inner;
  auto injector = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::parse("error=0"), 7);
  fault::FaultyBackend faulty(inner, injector);
  EXPECT_STREQ(faulty.name(), "faulty(echo)");

  const std::vector<Request> requests = {Request{{1.0F, 2.0F}},
                                         Request{{0.5F, 0.25F}}};
  const auto direct = inner.query_batch(requests);
  const auto decorated = faulty.query_batch(requests);
  ASSERT_EQ(decorated.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(std::memcmp(&decorated[i].metrics, &direct[i].metrics,
                          sizeof(direct[i].metrics)),
              0);
  }
}

TEST(fault_backend, CertainErrorRateFaultsEveryCall) {
  EchoBackend inner;
  auto injector = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::parse("error=1"), 7);
  fault::FaultyBackend faulty(inner, injector);
  const Request req{{1.0F}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_THROW((void)faulty.query_batch({&req, 1}), fault::InjectedFault);
  }
  EXPECT_EQ(inner.calls(), 0);  // faults fire before delegation
}

// --- ResilientBackend -------------------------------------------------------

TEST(fault_resilient, RetriesTransientFailuresUntilSuccess) {
  FlakyBackend primary(2);
  auto opts = fast_resilience();
  opts.retries = 3;
  serve::ResilientBackend resilient(primary, nullptr, opts);

  const Request req{{1.0F, 2.0F}};
  const auto responses = resilient.query_batch({&req, 1});
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_DOUBLE_EQ(responses[0].metrics.latency_ms, 3.0);
  EXPECT_FALSE(responses[0].degraded);
  EXPECT_EQ(primary.calls(), 3);  // 2 failures + 1 success
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.retries, 2U);
  EXPECT_EQ(stats.primary_calls, 3U);
  EXPECT_EQ(stats.fallbacks, 0U);
}

TEST(fault_resilient, ExhaustedRetriesFallBackDegraded) {
  FlakyBackend primary(std::numeric_limits<int>::max());
  EchoBackend fallback(1000.0);
  auto opts = fast_resilience();
  opts.retries = 1;
  serve::ResilientBackend resilient(primary, &fallback, opts);
  EXPECT_STREQ(resilient.name(), "resilient(flaky|echo)");

  const Request req{{1.0F}};
  const auto responses = resilient.query_batch({&req, 1});
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_TRUE(responses[0].degraded);
  EXPECT_DOUBLE_EQ(responses[0].metrics.latency_ms, 1001.0);
  EXPECT_EQ(primary.calls(), 2);  // first try + 1 retry
  EXPECT_EQ(resilient.stats().fallbacks, 1U);
}

TEST(fault_resilient, ExhaustedRetriesWithoutFallbackRethrow) {
  FlakyBackend primary(std::numeric_limits<int>::max());
  auto opts = fast_resilience();
  opts.retries = 2;
  serve::ResilientBackend resilient(primary, nullptr, opts);
  const Request req{{1.0F}};
  EXPECT_THROW((void)resilient.query_batch({&req, 1}), std::runtime_error);
  EXPECT_EQ(primary.calls(), 3);
}

TEST(fault_resilient, PermanentErrorsAreNotRetriedOrDegraded) {
  PermanentErrorBackend primary;
  EchoBackend fallback;
  auto opts = fast_resilience();
  opts.retries = 5;
  serve::ResilientBackend resilient(primary, &fallback, opts);
  const Request req{{1.0F}};
  EXPECT_THROW((void)resilient.query_batch({&req, 1}), std::invalid_argument);
  EXPECT_EQ(primary.calls(), 1);  // no retries: the request is the problem
  EXPECT_EQ(resilient.stats().retries, 0U);
  EXPECT_EQ(resilient.stats().fallbacks, 0U);
}

TEST(fault_resilient, BreakerOpensAfterThresholdAndSkipsPrimary) {
  FlakyBackend primary(std::numeric_limits<int>::max());
  EchoBackend fallback(1000.0);
  auto opts = fast_resilience();
  opts.retries = 0;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_us = 60L * 1000 * 1000;  // effectively forever
  serve::ResilientBackend resilient(primary, &fallback, opts);

  const Request req{{1.0F}};
  for (int i = 0; i < 5; ++i) {
    const auto responses = resilient.query_batch({&req, 1});
    EXPECT_TRUE(responses[0].degraded);
  }
  EXPECT_EQ(primary.calls(), 2);  // threshold hit; the rest skipped it
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.breaker_opens, 1U);
  EXPECT_EQ(stats.breaker_closes, 0U);
  EXPECT_EQ(stats.fallbacks, 5U);
}

TEST(fault_resilient, HalfOpenProbeClosesBreakerOnSuccess) {
  FlakyBackend primary(1);  // fail once, then recover
  EchoBackend fallback(1000.0);
  auto opts = fast_resilience();
  opts.retries = 0;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown_us = 0;  // half-open on the very next call
  serve::ResilientBackend resilient(primary, &fallback, opts);

  const Request req{{1.0F}};
  EXPECT_TRUE(resilient.query_batch({&req, 1})[0].degraded);   // opens
  EXPECT_FALSE(resilient.query_batch({&req, 1})[0].degraded);  // probe wins
  EXPECT_FALSE(resilient.query_batch({&req, 1})[0].degraded);  // closed
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.breaker_opens, 1U);
  EXPECT_EQ(stats.breaker_closes, 1U);
  EXPECT_EQ(primary.calls(), 3);
}

TEST(fault_resilient, FailedProbeReopensBreaker) {
  FlakyBackend primary(2);  // the first probe also fails
  EchoBackend fallback(1000.0);
  auto opts = fast_resilience();
  opts.retries = 0;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown_us = 0;
  serve::ResilientBackend resilient(primary, &fallback, opts);

  const Request req{{1.0F}};
  EXPECT_TRUE(resilient.query_batch({&req, 1})[0].degraded);   // opens
  EXPECT_TRUE(resilient.query_batch({&req, 1})[0].degraded);   // probe fails
  EXPECT_FALSE(resilient.query_batch({&req, 1})[0].degraded);  // next probe ok
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.breaker_opens, 2U);  // initial open + reopen
  EXPECT_EQ(stats.breaker_closes, 1U);
}

TEST(fault_resilient, DeadlineExpiryDegradesInsteadOfBlocking) {
  SlowBackend primary(200000);  // 200 ms per call
  EchoBackend fallback(1000.0);
  auto opts = fast_resilience();
  opts.retries = 3;
  opts.deadline_us = 20000;  // 20 ms budget
  serve::ResilientBackend resilient(primary, &fallback, opts);

  const Request req{{1.0F}};
  const auto start = std::chrono::steady_clock::now();
  const auto responses = resilient.query_batch({&req, 1});
  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_TRUE(responses[0].degraded);
  EXPECT_LT(elapsed_us, 150000);  // gave up well before the 200 ms backend
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.deadline_expired, 1U);
  EXPECT_EQ(stats.primary_calls, 1U);  // the expiry consumed the budget
}

// --- Pool-site injection ----------------------------------------------------

TEST(fault_pool_site, GlobalInstallArmsAndDisarmsThePoolHook) {
  auto injector = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::parse("pool:error=1"), 7);
  fault::install_global(injector);
  EXPECT_EQ(fault::global_injector(), injector);

  auto& pool = runtime::global_pool();
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(0, 16, 1, [&](long lo, long hi) {
        ran.fetch_add(static_cast<int>(hi - lo));
      }),
      fault::InjectedFault);
  EXPECT_EQ(ran.load(), 0);  // the fault fired before any chunk ran
  EXPECT_GE(injector->stats().errors, 1U);

  fault::install_global(nullptr);
  EXPECT_EQ(fault::global_injector(), nullptr);
  pool.parallel_for(0, 16, 1, [&](long lo, long hi) {
    ran.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ran.load(), 16);  // disarmed: loops run clean again
}

// --- 10k-query replay acceptance --------------------------------------------

/// Ground-truth fixture (same tiny space as the serve_service tests).
class fault_replay : public ::testing::Test {
 protected:
  fault_replay()
      : arch_space_(arch::cifar10_backbone()),
        hw_space_({.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16,
                   .rf_step = 8}),
        table_(arch_space_, hw_space_, model_) {}

  arch::ArchSpace arch_space_;
  hwgen::HwSearchSpace hw_space_;
  accel::CostModel model_;
  arch::CostTable table_;
};

TEST_F(fault_replay, TenKQueriesUnderTenPercentErrorsStayCorrect) {
  constexpr int kQueries = 10000;
  constexpr std::size_t kWindow = 256;

  util::Rng rng(0xDA5CE);
  std::vector<Request> trace;
  trace.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    trace.push_back(
        Request::from_architecture(arch_space_, arch_space_.random(rng)));
  }

  // Fault-free ground truth, straight through the exact backend.
  serve::ExactBackend exact(table_, accel::edap_cost());
  std::vector<Response> expected;
  expected.reserve(trace.size());
  for (std::size_t at = 0; at < trace.size(); at += kWindow) {
    const std::size_t hi = std::min(at + kWindow, trace.size());
    auto chunk = exact.query_batch(
        std::span<const Request>(trace.data() + at, hi - at));
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }

  // Faulted run: 10% injected errors on the exact backend, retries absorb
  // almost all of them, the surrogate catches the rest. The 10k random
  // architectures are drawn from 7^9, so they almost never repeat and
  // nearly every request misses the cache and exercises the faulted path;
  // degraded answers are never cached.
  serve::ExactBackend exact_again(table_, accel::edap_cost());
  auto injector = std::make_shared<fault::FaultInjector>(
      fault::FaultSpec::parse("backend:error=0.1"), 0xFA17);
  fault::FaultyBackend faulty(exact_again, injector);
  util::Rng eval_rng(17);
  evalnet::Evaluator evaluator(arch_space_.encoding_width(), hw_space_,
                               eval_rng);
  serve::SurrogateBackend surrogate(evaluator);
  auto ropts = fast_resilience();
  ropts.retries = 4;
  serve::ResilientBackend resilient(faulty, &surrogate, ropts);

  serve::Service::Options sopts;
  sopts.batch.max_batch = 4;
  serve::Service service(resilient, sopts);

  std::size_t degraded = 0;
  std::size_t mismatched = 0;
  for (std::size_t at = 0; at < trace.size(); at += kWindow) {
    const std::size_t hi = std::min(at + kWindow, trace.size());
    // Acceptance: this must never throw — that is the whole point.
    const auto window = service.query_many(
        std::span<const Request>(trace.data() + at, hi - at));
    for (std::size_t i = 0; i < window.size(); ++i) {
      const Response& got = window[i];
      if (got.degraded) {
        ++degraded;
        continue;
      }
      const Response& want = expected[at + i];
      const bool same =
          got.config == want.config &&
          std::memcmp(&got.metrics, &want.metrics, sizeof(want.metrics)) == 0;
      if (!same) ++mismatched;
    }
  }

  // Faults were actually injected and retried…
  EXPECT_GT(injector->stats().errors, 0U);
  EXPECT_GT(resilient.stats().retries, 0U);
  // …yet >= 99% of responses are full-fidelity…
  EXPECT_LT(degraded, static_cast<std::size_t>(kQueries / 100));
  // …and every exact-path answer is bit-identical to the fault-free run.
  EXPECT_EQ(mismatched, 0U);
}

}  // namespace

// Unit tests for the dance::serve cost-query service layer: LRU cache
// semantics, one caller at a time in the backend, backend correctness
// against the ground-truth toolchain and the Service facade wiring. Suite
// names carry a lowercase "serve_" prefix on purpose: `ctest -R serve`
// selects exactly the serve suites (including the concurrent property
// suites, which CI runs under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <regex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "accel/cost_function.h"
#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "obs/registry.h"
#include "serve/backend.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace {

using namespace dance;
using serve::Request;
using serve::Response;

serve::LruCache::Key key_of(std::initializer_list<float> vals) {
  return std::vector<float>(vals);
}

Response response_with_latency(double latency_ms) {
  Response r;
  r.metrics.latency_ms = latency_ms;
  return r;
}

TEST(serve_cache, PutGetRoundTripAndCounters) {
  serve::LruCache cache(8);
  EXPECT_FALSE(cache.get(key_of({1.0F})).has_value());
  cache.put(key_of({1.0F}), response_with_latency(3.5));
  const auto hit = cache.get(key_of({1.0F}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->metrics.latency_ms, 3.5);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.entries, 1U);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(serve_cache, EvictsLeastRecentlyUsed) {
  // Capacity 2: inserting a third key evicts the stalest.
  serve::LruCache cache(2);
  cache.put(key_of({1.0F}), response_with_latency(1.0));
  cache.put(key_of({2.0F}), response_with_latency(2.0));
  // Touch key 1 so key 2 becomes the LRU entry.
  ASSERT_TRUE(cache.get(key_of({1.0F})).has_value());
  cache.put(key_of({3.0F}), response_with_latency(3.0));

  EXPECT_TRUE(cache.get(key_of({1.0F})).has_value());
  EXPECT_FALSE(cache.get(key_of({2.0F})).has_value());
  EXPECT_TRUE(cache.get(key_of({3.0F})).has_value());
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.stats().entries, 2U);
}

TEST(serve_cache, OverwriteRefreshesInsteadOfGrowing) {
  serve::LruCache cache(2);
  cache.put(key_of({1.0F}), response_with_latency(1.0));
  cache.put(key_of({1.0F}), response_with_latency(9.0));
  EXPECT_EQ(cache.stats().entries, 1U);
  EXPECT_DOUBLE_EQ(cache.get(key_of({1.0F}))->metrics.latency_ms, 9.0);
  EXPECT_EQ(cache.stats().evictions, 0U);
}

TEST(serve_cache, ClearDropsEntriesAndCounters) {
  serve::LruCache cache(4);
  cache.put(key_of({1.0F}), response_with_latency(1.0));
  (void)cache.get(key_of({1.0F}));
  cache.clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0U);
  EXPECT_EQ(stats.hits, 0U);
  EXPECT_FALSE(cache.get(key_of({1.0F})).has_value());
}

TEST(serve_cache, NegativeZeroCanonicalizesToPositiveZero) {
  const std::vector<float> with_neg = {-0.0F, 1.0F};
  const std::vector<float> with_pos = {0.0F, 1.0F};
  EXPECT_EQ(serve::canonical_key(with_neg), with_pos);
  EXPECT_EQ(serve::KeyHash{}(serve::canonical_key(with_neg)),
            serve::KeyHash{}(with_pos));
}

TEST(serve_types, KeyHashFoldsNegativeZero) {
  // A probe spelled with -0.0f finds its +0.0f twin without canonical_key.
  const std::vector<float> with_neg = {1.0F, -0.0F, 0.0F, -0.0F};
  const std::vector<float> with_pos = {1.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_EQ(serve::KeyHash{}(with_neg), serve::KeyHash{}(with_pos));
  EXPECT_TRUE(serve::KeyEq{}(with_neg, with_pos));
  EXPECT_FALSE(serve::KeyEq{}(with_neg, {1.0F, 0.0F, 1.0F, 0.0F}));
  EXPECT_FALSE(serve::KeyEq{}(with_neg, {1.0F, 0.0F, 0.0F}));

  serve::LruCache cache(4);
  cache.put(with_pos, response_with_latency(7.0));
  const auto hit = cache.get(with_neg);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->metrics.latency_ms, 7.0);

  // A NaN key equals only a key with the same bits: not a NaN with another
  // payload, and not a zero of either sign.
  const float nan_a = std::bit_cast<float>(0x7fc00001U);
  const float nan_b = std::bit_cast<float>(0x7fc00002U);
  EXPECT_TRUE(serve::KeyEq{}({nan_a, 1.0F}, {nan_a, 1.0F}));
  EXPECT_EQ(serve::KeyHash{}({nan_a, 1.0F}), serve::KeyHash{}({nan_a, 1.0F}));
  EXPECT_FALSE(serve::KeyEq{}({nan_a, 1.0F}, {nan_b, 1.0F}));
  EXPECT_FALSE(serve::KeyEq{}({nan_a, 1.0F}, {0.0F, 1.0F}));
  EXPECT_FALSE(serve::KeyEq{}({nan_a, 1.0F}, {-0.0F, 1.0F}));
}

/// Deterministic fake backend: answers latency = sum of the encoding, and
/// records every batch size it was asked for. While `fail` is set it records
/// the call and then throws.
class FakeBackend : public serve::CostQueryBackend {
 public:
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    batch_sizes_.push_back(requests.size());
    if (fail) throw std::runtime_error("backend unavailable");
    std::vector<Response> out;
    out.reserve(requests.size());
    for (const Request& r : requests) {
      double sum = 0.0;
      for (float v : r.encoding) sum += v;
      out.push_back(response_with_latency(sum));
    }
    return out;
  }
  const char* name() const override { return "fake"; }

  const std::vector<std::size_t>& batch_sizes() const { return batch_sizes_; }
  bool fail = false;

 private:
  std::vector<std::size_t> batch_sizes_;
};

/// Forwards to `inner` and counts the rows it was asked for.
class CountingBackend : public serve::CostQueryBackend {
 public:
  explicit CountingBackend(serve::CostQueryBackend& inner) : inner_(inner) {}

  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    rows += requests.size();
    return inner_.query_batch(requests);
  }
  const char* name() const override { return inner_.name(); }

  std::uint64_t rows = 0;

 private:
  serve::CostQueryBackend& inner_;
};

/// Counts how many callers are inside `query_batch` at once. Every call
/// lingers, so two callers that are let in together overlap.
class OverlapProbeBackend : public serve::CostQueryBackend {
 public:
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    const int now = inside_.fetch_add(1) + 1;
    int seen = max_inside_.load();
    while (seen < now && !max_inside_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    std::vector<Response> out;
    for (const Request& r : requests) {
      out.push_back(response_with_latency(r.encoding.at(0)));
    }
    inside_.fetch_sub(1);
    return out;
  }
  const char* name() const override { return "overlap-probe"; }
  int max_inside() const { return max_inside_.load(); }

 private:
  std::atomic<int> inside_{0};
  std::atomic<int> max_inside_{0};
};

/// True when both answers carry the same config and bit-identical metrics.
bool same_bits(const Response& a, const Response& b) {
  return a.config == b.config &&
         std::bit_cast<std::uint64_t>(a.metrics.latency_ms) ==
             std::bit_cast<std::uint64_t>(b.metrics.latency_ms) &&
         std::bit_cast<std::uint64_t>(a.metrics.energy_mj) ==
             std::bit_cast<std::uint64_t>(b.metrics.energy_mj) &&
         std::bit_cast<std::uint64_t>(a.metrics.area_mm2) ==
             std::bit_cast<std::uint64_t>(b.metrics.area_mm2);
}

/// Small ground-truth fixture shared by the backend/service tests (same
/// shape as the EvalNetTest fixture: tiny HW space keeps the LUT build
/// fast).
class serve_service : public ::testing::Test {
 protected:
  serve_service()
      : arch_space_(arch::cifar10_backbone()),
        hw_space_({.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16,
                   .rf_step = 8}),
        table_(arch_space_, hw_space_, model_) {}

  Request request_for_seed(int seed) const {
    util::Rng rng(static_cast<std::uint64_t>(seed));
    return Request::from_architecture(arch_space_, arch_space_.random(rng));
  }

  arch::ArchSpace arch_space_;
  hwgen::HwSearchSpace hw_space_;
  accel::CostModel model_;
  arch::CostTable table_;
};

TEST_F(serve_service, BackendSeesOneCallerAtATime) {
  // Single and bulk queries from five threads all miss (every key is
  // distinct, the cache holds one entry); the Service mutex must still let
  // only one of them into the backend at a time.
  OverlapProbeBackend backend;
  serve::Service::Options opts;
  opts.cache_capacity = 1;
  serve::Service service(backend, opts);
  constexpr int kRounds = 30;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const auto v = static_cast<float>(1000 * t + i);
        if (service.query(Request{{v}}).metrics.latency_ms != v) ++wrong;
      }
    });
  }
  for (int t = 3; t < 5; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<Request> bulk;
        for (int k = 0; k < 6; ++k) {
          bulk.push_back(Request{{static_cast<float>(1000 * t + 10 * i + k)}});
        }
        const auto answers = service.query_many(bulk);
        for (std::size_t k = 0; k < bulk.size(); ++k) {
          if (answers[k].metrics.latency_ms != bulk[k].encoding[0]) ++wrong;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(backend.max_inside(), 1);
}

TEST_F(serve_service, ConcurrentSurrogateCallersMatchTheOracle) {
  // Four threads querying one Service on a SurrogateBackend must each get
  // the oracle's bits. The one-entry cache sends nearly every query to the
  // backend.
  const hwgen::HwSearchSpace hw_space = hwgen::HwSearchSpace::small();
  evalnet::Evaluator::Options eval_opts;
  eval_opts.hwgen.hidden_dim = 16;
  eval_opts.hwgen.num_layers = 2;
  eval_opts.cost.hidden_dim = 16;
  eval_opts.cost.num_layers = 2;
  constexpr std::uint64_t kSeed = 17;
  util::Rng served_rng(kSeed);
  evalnet::Evaluator served_eval(arch_space_.encoding_width(), hw_space,
                                 served_rng, eval_opts);
  serve::SurrogateBackend served(served_eval);
  util::Rng oracle_rng(kSeed);
  evalnet::Evaluator oracle_eval(arch_space_.encoding_width(), hw_space,
                                 oracle_rng, eval_opts);
  serve::SurrogateBackend oracle(oracle_eval);

  constexpr int kThreads = 4;
  constexpr int kQueries = 2000;
  util::Rng rng(0x5e7);
  std::vector<Request> requests;
  std::vector<Response> expected;
  for (int i = 0; i < kQueries; ++i) {
    requests.push_back(
        Request::from_architecture(arch_space_, arch_space_.random(rng)));
    expected.push_back(oracle.query_batch({&requests.back(), 1}).front());
  }

  serve::Service::Options opts;
  opts.cache_capacity = 1;
  serve::Service service(served, opts);
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = t; i < kQueries; i += kThreads) {
        const auto k = static_cast<std::size_t>(i);
        if (!same_bits(service.query(requests[k]), expected[k])) ++wrong;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(serve_service, BackendExceptionReachesCaller) {
  // The exception reaches the caller and nothing is cached; the next query
  // of the same key reaches the backend again, so the failed call released
  // the backend mutex.
  FakeBackend backend;
  serve::Service service(backend, serve::Service::Options{});
  const Request req{{2.0F, 3.0F}};
  backend.fail = true;
  EXPECT_THROW((void)service.query(req), std::runtime_error);
  EXPECT_THROW((void)service.query_many({&req, 1}), std::runtime_error);
  EXPECT_EQ(service.stats().cache.entries, 0U);

  backend.fail = false;
  const Response r = service.query(req);
  EXPECT_FALSE(r.cached);
  EXPECT_DOUBLE_EQ(r.metrics.latency_ms, 5.0);
  EXPECT_EQ(backend.batch_sizes(), (std::vector<std::size_t>{1, 1, 1}));
}

TEST_F(serve_service, QueryManyAnswersItsMissesInOneBackendCall) {
  // perfbench reads serve.batch.{executed,requests} into its mean batch:
  // +1 and +rows per backend call, and nothing for a cache hit.
  FakeBackend backend;
  serve::Service service(backend, serve::Service::Options{});
  auto& executed = obs::Registry::global().counter("serve.batch.executed");
  auto& rows = obs::Registry::global().counter("serve.batch.requests");
  const std::uint64_t executed_before = executed.value();
  const std::uint64_t rows_before = rows.value();

  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(Request{{static_cast<float>(i % 4)}});
  }
  const auto responses = service.query_many(requests);
  ASSERT_EQ(responses.size(), 8U);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(responses[static_cast<std::size_t>(i)].metrics.latency_ms,
                     i % 4);
  }
  EXPECT_EQ(backend.batch_sizes(), (std::vector<std::size_t>{4}));
  EXPECT_EQ(executed.value() - executed_before, 1U);
  EXPECT_EQ(rows.value() - rows_before, 4U);

  EXPECT_TRUE(service.query(requests[0]).cached);
  EXPECT_EQ(backend.batch_sizes().size(), 1U);
  EXPECT_EQ(executed.value() - executed_before, 1U);
  EXPECT_EQ(rows.value() - rows_before, 4U);
}

TEST_F(serve_service, ExactBackendMatchesDirectLutQuery) {
  serve::ExactBackend backend(table_);
  const Request req = request_for_seed(1);
  const auto responses = backend.query_batch({&req, 1});
  ASSERT_EQ(responses.size(), 1U);

  const auto direct =
      table_.optimal(arch_space_.decode(req.encoding), accel::edap_cost());
  EXPECT_EQ(responses[0].config, direct.config);
  EXPECT_DOUBLE_EQ(responses[0].metrics.latency_ms, direct.metrics.latency_ms);
  EXPECT_DOUBLE_EQ(responses[0].metrics.energy_mj, direct.metrics.energy_mj);
  EXPECT_DOUBLE_EQ(responses[0].metrics.area_mm2, direct.metrics.area_mm2);
}

TEST_F(serve_service, ExactBackendServesOnlyEdap) {
  // The two-argument constructor is kept for callers that still pass the
  // cost: EDAP is accepted, any other cost is refused rather than served
  // as EDAP.
  serve::ExactBackend with_edap(table_, accel::edap_cost());
  const Request req = request_for_seed(1);
  const auto via_fn = with_edap.query_batch({&req, 1});
  serve::ExactBackend plain(table_);
  const auto via_plain = plain.query_batch({&req, 1});
  ASSERT_EQ(via_fn.size(), 1U);
  ASSERT_EQ(via_plain.size(), 1U);
  EXPECT_EQ(via_fn[0].config, via_plain[0].config);
  EXPECT_EQ(std::memcmp(&via_fn[0].metrics, &via_plain[0].metrics,
                        sizeof(accel::CostMetrics)),
            0);
  const auto build = [this](const accel::HwCost& cost) {
    serve::ExactBackend backend(table_, cost);
  };
  EXPECT_THROW(build(accel::linear_cost()), std::invalid_argument);
}

TEST_F(serve_service, ExactBackendRejectsWrongWidth) {
  serve::ExactBackend backend(table_);
  const Request bad{{1.0F, 2.0F}};
  EXPECT_THROW((void)backend.query_batch({&bad, 1}), std::invalid_argument);
}

TEST_F(serve_service, SecondIdenticalQueryIsACacheHit) {
  serve::ExactBackend exact(table_);
  CountingBackend backend(exact);
  serve::Service service(backend, serve::Service::Options{});

  const Request req = request_for_seed(2);
  const Response first = service.query(req);
  EXPECT_FALSE(first.cached);
  const Response second = service.query(req);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.config, first.config);
  EXPECT_DOUBLE_EQ(second.metrics.latency_ms, first.metrics.latency_ms);

  const auto stats = service.stats();
  EXPECT_EQ(stats.queries, 2U);
  EXPECT_EQ(stats.cache.hits, 1U);
  EXPECT_EQ(stats.cache.misses, 1U);
  EXPECT_EQ(backend.rows, 1U);  // only the miss reached the backend
}

TEST_F(serve_service, NegativeZeroRequestHitsTheCachedEntry) {
  serve::ExactBackend exact(table_);
  CountingBackend backend(exact);
  serve::Service service(backend, serve::Service::Options{});

  const Request plus = request_for_seed(3);
  Request minus = plus;
  for (float& v : minus.encoding) {
    if (v == 0.0F) v = -0.0F;
  }
  ASSERT_TRUE(std::signbit(minus.encoding.front()) ||
              std::signbit(minus.encoding.back()));
  const Response first = service.query(plus);
  const Response second = service.query(minus);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_TRUE(same_bits(first, second));
  EXPECT_EQ(backend.rows, 1U);
}

TEST_F(serve_service, StatsCountQueriesFromEveryThread) {
  serve::ExactBackend backend(table_);
  serve::Service service(backend, serve::Service::Options{});
  const Request req = request_for_seed(5);
  (void)service.query(req);  // the one miss; every later query hits
  service.reset_stats();
  EXPECT_EQ(service.stats().queries, 0U);

  constexpr int kThreads = 4;
  constexpr int kHits = 500;
  std::atomic<int> missed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kHits; ++i) {
        if (!service.query(req).cached) ++missed;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(missed.load(), 0);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kThreads * kHits));
  EXPECT_GT(stats.p95_us, 0.0);
  EXPECT_GE(stats.p95_us, stats.p50_us);

  service.reset_stats();
  EXPECT_EQ(service.stats().queries, 0U);
  EXPECT_EQ(service.stats().p50_us, 0.0);
}

TEST_F(serve_service, QueryManyPreservesOrderAndMemoizes) {
  serve::ExactBackend exact(table_);
  CountingBackend backend(exact);
  serve::Service service(backend, serve::Service::Options{});

  // 8 requests over 4 unique keys: within-call dedup answers the second
  // half by memoization even on a cold cache.
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) requests.push_back(request_for_seed(10 + i % 4));
  const auto responses = service.query_many(requests);
  ASSERT_EQ(responses.size(), 8U);
  for (int i = 0; i < 4; ++i) {
    const auto& fresh = responses[static_cast<std::size_t>(i)];
    const auto& repeat = responses[static_cast<std::size_t>(i + 4)];
    EXPECT_FALSE(fresh.cached);
    EXPECT_TRUE(repeat.cached);
    EXPECT_EQ(repeat.config, fresh.config);
    EXPECT_DOUBLE_EQ(repeat.metrics.latency_ms, fresh.metrics.latency_ms);
    // Per-request answers match the direct ground-truth query.
    const auto direct = table_.optimal(
        arch_space_.decode(requests[static_cast<std::size_t>(i)].encoding),
        accel::edap_cost());
    EXPECT_EQ(fresh.config, direct.config);
  }
  // Only the 4 unique keys reached the backend.
  EXPECT_EQ(backend.rows, 4U);

  // A second replay is answered entirely from the memoization cache.
  const auto replayed = service.query_many(requests);
  for (const auto& r : replayed) EXPECT_TRUE(r.cached);
  EXPECT_EQ(service.stats().cache.hits, 8U);
  EXPECT_EQ(backend.rows, 4U);
}

TEST_F(serve_service, StatsReportMentionsEveryBlock) {
  serve::ExactBackend backend(table_);
  serve::Service service(backend, serve::Service::Options{});
  (void)service.query(request_for_seed(4));
  const std::string report = service.stats_report();
  EXPECT_NE(report.find("QPS"), std::string::npos);
  EXPECT_NE(report.find("hit rate"), std::string::npos);
  EXPECT_NE(report.find("p50"), std::string::npos);
  EXPECT_NE(report.find("p95"), std::string::npos);

  service.reset_stats();
  EXPECT_EQ(service.stats().queries, 0U);
}

// --- wire front-end input validation --------------------------------------

/// An encoding request line that spells its values as given.
std::string encoding_request(long id, const std::vector<std::string>& values) {
  std::string line = "{\"id\": " + std::to_string(id) + ", \"encoding\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    line += (i == 0 ? "" : ", ") + values[i];
  }
  return line + "]}";
}

/// An encoding line of the backbone's width with `bad` at column 5.
std::string encoding_line(long id, int width, const char* bad) {
  std::vector<std::string> values(static_cast<std::size_t>(width), "0");
  values[5] = bad;
  return encoding_request(id, values);
}

/// The values of the one-hot encoding of arch [0, 1, 2, 3, 4, 5, 6, 0, 1],
/// each 0 spelled `zero` and each 1 spelled `one`.
std::vector<std::string> one_hot_values(const char* zero, const char* one) {
  const int ops[] = {0, 1, 2, 3, 4, 5, 6, 0, 1};
  std::vector<std::string> values;
  for (const int op : ops) {
    for (int k = 0; k < arch::kNumCandidateOps; ++k) {
      values.emplace_back(k == op ? one : zero);
    }
  }
  return values;
}

TEST_F(serve_service, WireRejectsNonFiniteEncodingWithoutCaching) {
  serve::ExactBackend backend(table_);
  serve::Service service(backend, serve::Service::Options{});
  const int width = arch_space_.encoding_width();

  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e39"}) {
    const std::string out = serve::wire::answer_line(
        encoding_line(3, width, bad), arch_space_, service);
    EXPECT_EQ(out, R"({"id": 3, "error": "encoding values must be finite"})")
        << bad;
    EXPECT_EQ(service.stats().cache.entries, 0U) << bad;
  }
  // A finite but soft encoding names no architecture: an error line, and
  // nothing is cached for it either.
  const std::string soft = serve::wire::answer_line(
      encoding_line(4, width, "0.25"), arch_space_, service);
  EXPECT_EQ(soft, R"({"id": 4, "error": "encoding must be one-hot: each )"
                  R"(value 0 or 1, one 1 per slot"})");
  EXPECT_EQ(service.stats().cache.entries, 0U);
}

TEST_F(serve_service, WireRangeChecksArchBeforeCasting) {
  serve::ExactBackend backend(table_);
  serve::Service service(backend, serve::Service::Options{});

  for (const char* bad : {"nan", "inf", "-inf", "1e10", "-1e10", "7", "-1",
                          "2.5", "-0.5"}) {
    const std::string line = std::string(R"({"id": 9, "arch": [0, 1, 2, 3, )") +
                             bad + ", 5, 6, 0, 1]}";
    const std::string out = serve::wire::answer_line(line, arch_space_, service);
    EXPECT_EQ(out, R"({"id": 9, "error": "arch entries must be integer op )"
                   R"(indices in [0, 6]"})")
        << bad;
    EXPECT_EQ(out.find('\n'), std::string::npos);
    EXPECT_EQ(service.stats().cache.entries, 0U) << bad;
  }
}

TEST(serve_wire, ErrorLineEscapesItsMessage) {
  EXPECT_EQ(serve::wire::error_line(-1, "unknown cmd: a\\"),
            R"({"id": -1, "error": "unknown cmd: a\\"})");
  EXPECT_EQ(serve::wire::error_line(2, "say \"hi\"\n\tnow"),
            R"({"id": 2, "error": "say \"hi\"\u000a\u0009now"})");
}

TEST(serve_wire, NonFiniteAnswerIsAnErrorLine) {
  // "%.6g" spells NaN and infinity as nan and inf, which no JSON reader
  // accepts. A surrogate answer to a finite but huge encoding can be NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (int field = 0; field < 3; ++field) {
      serve::Response r;
      r.metrics = {.latency_ms = 1.0, .energy_mj = 2.0, .area_mm2 = 3.0};
      double* metric[] = {&r.metrics.latency_ms, &r.metrics.energy_mj,
                          &r.metrics.area_mm2};
      *metric[field] = bad;
      EXPECT_EQ(serve::wire::response_line(4, r),
                R"({"id": 4, "error": "answer is not finite"})")
          << "metric " << field << " = " << bad;
    }
  }
}

/// The response line as printf spelled it: the oracle for response_line.
std::string printf_response_line(long id, const Response& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"id\": %ld, \"latency_ms\": %.6g, \"energy_mj\": %.6g, "
      "\"area_mm2\": %.6g, \"pe_x\": %d, \"pe_y\": %d, \"rf_size\": %d, "
      "\"dataflow\": \"%s\", \"cached\": %s, \"degraded\": false}",
      id, r.metrics.latency_ms, r.metrics.energy_mj, r.metrics.area_mm2,
      r.config.pe_x, r.config.pe_y, r.config.rf_size,
      accel::to_string(r.config.dataflow).c_str(), r.cached ? "true" : "false");
  return buf;
}

TEST(serve_wire, ResponseLineMatchesPrintfOracle) {
  // Rounding edges of six significant digits, the %f/%e switch at 1e-4 and
  // 1e6, subnormals and the extremes, each with both signs.
  std::vector<double> values = {
      0.0,      9.999995, 9.9999949999, 999999.5, 999999.4999, 1e-5, 0.0001,
      0.00009999995, 1e6,  123456.5, 1.5,     2.5,  0.1,  1e100,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(), 4.9406564584124654e-320};
  const std::size_t edges = values.size();
  for (std::size_t i = 0; i < edges; ++i) values.push_back(-values[i]);
  // Seeded random finite doubles over every exponent: uniform bit patterns.
  util::Rng rng(20240611);
  while (values.size() < 200000) {
    const double v = std::bit_cast<double>(rng.engine()());
    if (std::isfinite(v)) values.push_back(v);
  }

  const long ids[] = {std::numeric_limits<long>::min(),
                      std::numeric_limits<long>::max(), -1, 0, 42};
  const accel::Dataflow flows[] = {accel::Dataflow::kWeightStationary,
                                   accel::Dataflow::kOutputStationary,
                                   accel::Dataflow::kRowStationary};
  const int ints[] = {std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max(), -1, 0, 8, 64};
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    Response r;
    r.metrics = {.latency_ms = values[i],
                 .energy_mj = values[(i * 7 + 1) % values.size()],
                 .area_mm2 = values[(i * 13 + 2) % values.size()]};
    r.config.pe_x = ints[i % 6];
    r.config.pe_y = ints[(i / 6) % 6];
    r.config.rf_size = ints[(i / 36) % 6];
    r.config.dataflow = flows[i % 3];
    r.cached = i % 2 == 1;
    const long id = ids[i % 5];
    const std::string got = serve::wire::response_line(id, r);
    const std::string want = printf_response_line(id, r);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "got  " << got << "\nwant " << want;
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

TEST(serve_wire, NonIntegerOrOutOfRangeIdIsRejected) {
  // An id that is not a whole integer in range must not be answered under
  // a truncated, defaulted or saturated id that another request may own.
  const arch::ArchSpace space(arch::cifar10_backbone());
  const std::string arch = R"("arch": [0,1,2,3,4,5,6,0,1])";
  for (const std::string id :
       {"5.9", "\"6\"", "99999999999999999999", "-99999999999999999999",
        "1e3", "null", "7x"}) {
    const std::string line = "{\"id\": " + id + ", " + arch + "}";
    const auto parsed = serve::wire::parse_request(line, space);
    EXPECT_FALSE(parsed.ok) << line;
    EXPECT_EQ(serve::wire::error_line(parsed.request.id, parsed.error),
              R"({"id": -1, "error": "id must be an integer"})")
        << line;
  }
  // Valid ids: followed by ',' or '}', with optional whitespace; a line
  // without an id is still answered, under -1.
  for (const auto& [line, id] : std::vector<std::pair<std::string, long>>{
           {"{\"id\": 5 , " + arch + "}", 5},
           {"{" + arch + ", \"id\": -3}", -3},
           {"{" + arch + ", \"id\":12 }", 12},
           {"{" + arch + "}", -1}}) {
    const auto parsed = serve::wire::parse_request(line, space);
    EXPECT_TRUE(parsed.ok) << line << ": " << parsed.error;
    EXPECT_EQ(parsed.request.id, id) << line;
  }
}

TEST(serve_wire, ArraysNeedExactlyOneCommaBetweenElements) {
  const arch::ArchSpace space(arch::cifar10_backbone());
  for (const char* ops :
       {"[0,,1,2,3,4,5,6,0,1]", "[,0,1,2,3,4,5,6,0,1]", "[0,1,2,3,4,5,6,0,1,]",
        "[0 1 2 3 4 5 6 0 1]", "[0,1,2,3,4,5,6,0 1]", "[,]", "[0,1,2"}) {
    const std::string line = std::string(R"({"id": 4, "arch": )") + ops + "}";
    const auto parsed = serve::wire::parse_request(line, space);
    EXPECT_FALSE(parsed.ok) << ops;
    EXPECT_EQ(parsed.error, "request needs an 'encoding' or 'arch' array")
        << ops;
  }
  const auto spaced = serve::wire::parse_request(
      R"({"id": 4, "arch": [ 0 , 1,2 ,3, 4,5,6,0,1 ]})", space);
  EXPECT_TRUE(spaced.ok) << spaced.error;
  EXPECT_EQ(spaced.request.encoding,
            serve::wire::parse_request(
                R"({"id": 4, "arch": [0,1,2,3,4,5,6,0,1]})", space)
                .request.encoding);
}

// --- wire envelope: one JSON object per line --------------------------------

constexpr const char* kNotOneObject =
    R"({"id": -1, "error": "request must be one JSON object"})";

/// The error line `line` is answered with, or "" when it parses.
std::string error_for(const std::string& line) {
  const arch::ArchSpace space(arch::cifar10_backbone());
  const auto parsed = serve::wire::parse_request(line, space);
  return parsed.ok ? "" : serve::wire::error_line(parsed.request.id,
                                                  parsed.error);
}

constexpr const char* kUnknownKey =
    R"({"id": -1, "error": "unknown key: a request has only 'id', 'arch' and )"
    R"('encoding'"})";

TEST(serve_wire, StringValueSpelledLikeAKeyDoesNotShadowTheKey) {
  // `"model": "encoding"` carries the key name "encoding" as a value. It
  // must never be read as the "encoding" key (which would take the arch
  // array as a 9-float encoding: "encoding has the wrong width"). The key
  // set is closed, so the line is rejected for its unknown key "model",
  // wherever that member sits, and the id is not trusted either.
  EXPECT_EQ(
      error_for(R"({"id": 2, "model": "encoding", "arch": [0,1,2,3,4,5,6,0,1]})"),
      kUnknownKey);
  EXPECT_EQ(
      error_for(R"({"id": 2, "arch": [0,1,2,3,4,5,6,0,1], "model": "encoding"})"),
      kUnknownKey);
  EXPECT_EQ(
      error_for(R"({"k": "id", "id" : 7, "arch": [0,1,2,3,4,5,6,0,1]})"),
      kUnknownKey);
  // Under a known key a string is the wrong kind of value, never a key.
  EXPECT_EQ(error_for(R"({"id": "arch", "arch": [0,1,2,3,4,5,6,0,1]})"),
            R"({"id": -1, "error": "id must be an integer"})");
  EXPECT_EQ(error_for(R"({"id": 2, "arch": "encoding"})"),
            R"({"id": -1, "error": "request needs an 'encoding' or 'arch' )"
            R"(array"})");
}

TEST(serve_wire, TrailingTextAfterTheObjectIsAnError) {
  EXPECT_EQ(error_for(R"({"id":2,"arch":[0,1,2,3,4,5,6,0,1]} garbage)"),
            kNotOneObject);
  EXPECT_EQ(error_for(R"({"id":2,"arch":[0,1,2,3,4,5,6,0,1]}})"),
            kNotOneObject);
  EXPECT_EQ(error_for(R"({"id":2,"arch":[0,1,2,3,4,5,6,0,1]} {"id":3})"),
            kNotOneObject);
  // Whitespace around the object is not trailing text.
  EXPECT_EQ(error_for(" \t{\"id\":2,\"arch\":[0,1,2,3,4,5,6,0,1]} \r"), "");
}

TEST(serve_wire, ObjectWithoutItsClosingBraceIsAnError) {
  EXPECT_EQ(error_for(R"({"id":4,"arch":[0,1,2,3,4,5,6,0,1])"),
            kNotOneObject);
  EXPECT_EQ(error_for(R"({"id":4,"arch":[0,1,2,3,4,5,6,0,1],)"),
            kNotOneObject);
  EXPECT_EQ(error_for(R"({)"), kNotOneObject);
  // A brace inside quotes is a key's byte, never the closing brace.
  EXPECT_EQ(error_for(R"({"id":4,"arch":[0,1,2,3,4,5,6,0,1],"}")"),
            kUnknownKey);
  EXPECT_EQ(error_for(R"({"id":4,"arch":[0,1,2,3,4,5,6,0,1],"}":1})"),
            kUnknownKey);
}

TEST(serve_wire, ObjectWrappedInAnArrayIsAnError) {
  EXPECT_EQ(error_for(R"([{"id":5,"arch":[0,1,2,3,4,5,6,0,1]}])"),
            kNotOneObject);
  EXPECT_EQ(error_for(R"(x{"id":5,"arch":[0,1,2,3,4,5,6,0,1]})"),
            kNotOneObject);
}

TEST(serve_wire, RequestWithBothArchAndEncodingIsAnError) {
  // Neither key may silently win: the line is ambiguous, in either order.
  const std::string enc = encoding_request(6, one_hot_values("0", "1"));
  const std::string arch = R"("arch": [0,1,2,3,4,5,6,0,1])";
  const std::string want =
      R"({"id": 6, "error": "request must have an 'encoding' or an 'arch', )"
      R"(not both"})";
  EXPECT_EQ(error_for(enc.substr(0, enc.size() - 1) + ", " + arch + "}"),
            want);
  EXPECT_EQ(error_for("{" + arch + ", " + enc.substr(1)), want);
  // A string value spelled like the other key is not a second key: the
  // member that holds it has an unknown key, and that is the error.
  EXPECT_EQ(error_for(enc.substr(0, enc.size() - 1) + R"(, "model": "arch"})"),
            kUnknownKey);
  EXPECT_EQ(error_for(enc), "");
}

// --- wire numbers: the JSON number grammar, not strtof's --------------------

TEST(serve_wire, ArchValuesMustBeSpelledAsJsonNumbers) {
  for (const char* bad : {"0x1", "+1", "1.", "01", ".5", "1e", "1.e2", "-",
                          "inf", "nan", "infinity", "1f"}) {
    const std::string line =
        std::string(R"({"id": 9, "arch": [0, 1, 2, 3, )") + bad +
        ", 5, 6, 0, 1]}";
    EXPECT_EQ(error_for(line),
              R"({"id": 9, "error": "arch entries must be integer op )"
              R"(indices in [0, 6]"})")
        << bad;
  }
  // Every spelling of op 1 the grammar allows still is op 1.
  const arch::ArchSpace space(arch::cifar10_backbone());
  const std::vector<float> op1 =
      serve::wire::parse_request(R"({"arch": [0,1,2,3,4,5,6,0,1]})", space)
          .request.encoding;
  for (const char* good : {"1", "1.0", "1e0", "1E+0", "10e-1", "0.1e1"}) {
    const auto parsed = serve::wire::parse_request(
        std::string(R"({"arch": [0, )") + good + ", 2, 3, 4, 5, 6, 0, 1]}",
        space);
    EXPECT_TRUE(parsed.ok) << good << ": " << parsed.error;
    EXPECT_EQ(parsed.request.encoding, op1) << good;
  }
}

TEST(serve_wire, EncodingValuesMustBeSpelledAsJsonNumbers) {
  const int width =
      arch::ArchSpace(arch::cifar10_backbone()).encoding_width();
  for (const char* bad : {"0x0", "+0", "0.", "00", ".0", "-.5", "0e", "Inf"}) {
    EXPECT_EQ(error_for(encoding_line(3, width, bad)),
              R"({"id": 3, "error": "encoding values must be finite"})")
        << bad;
  }
  // Every spelling of 0 and of 1 the grammar allows reads as that value,
  // so the line is the one-hot encoding of its arch form.
  const arch::ArchSpace space(arch::cifar10_backbone());
  const std::vector<float> want =
      serve::wire::parse_request(R"({"arch": [0,1,2,3,4,5,6,0,1]})", space)
          .request.encoding;
  for (const char* zero : {"0", "-0", "0.0", "0e5", "-0.0E-3", "0.000"}) {
    for (const char* one : {"1", "1.0", "1e0", "1E+0", "10e-1", "0.1e1"}) {
      const auto parsed = serve::wire::parse_request(
          encoding_request(3, one_hot_values(zero, one)), space);
      ASSERT_TRUE(parsed.ok) << zero << ", " << one << ": " << parsed.error;
      EXPECT_EQ(parsed.request.encoding, want) << zero << ", " << one;
    }
  }
  // Integer spellings are converted without from_chars, every other one
  // through it; each value read carries strtof's bits, -0's sign included.
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (const char* zero : {"-0", "0.000", "-0.0", "0e5", "-0.0E-3"}) {
    for (const char* one : {"1.0", "1", "1e0", "10e-1", "0.1e1", "1.000000"}) {
      const auto parsed = serve::wire::parse_request(
          encoding_request(3, one_hot_values(zero, one)), space);
      ASSERT_TRUE(parsed.ok) << zero << ", " << one << ": " << parsed.error;
      ASSERT_EQ(parsed.request.encoding.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        const char* spelled = want[i] == 1.0F ? one : zero;
        EXPECT_EQ(bits(parsed.request.encoding[i]),
                  bits(std::strtof(spelled, nullptr)))
            << spelled << " at " << i;
      }
    }
  }
  // Past the integer path's reach a value still reads as strtof reads it:
  // an op index spelled with trailing zeros is that op, and 2^24 or nine
  // digits are out of range like any other large number.
  const std::vector<float> op6 =
      serve::wire::parse_request(R"({"arch": [6,1,2,3,4,5,6,0,1]})", space)
          .request.encoding;
  for (const char* six : {"6.000000", "6.0", "6e0", "60e-1"}) {
    const auto parsed = serve::wire::parse_request(
        std::string(R"({"arch": [)") + six + ", 1, 2, 3, 4, 5, 6, 0, 1]}",
        space);
    ASSERT_TRUE(parsed.ok) << six << ": " << parsed.error;
    EXPECT_EQ(parsed.request.encoding, op6) << six;
  }
  for (const char* big : {"16777216", "16777215", "99999999", "123456789",
                          "-16777216"}) {
    EXPECT_EQ(error_for(std::string(R"({"id": 9, "arch": [)") + big +
                        ", 1, 2, 3, 4, 5, 6, 0, 1]}"),
              R"({"id": 9, "error": "arch entries must be integer op )"
              R"(indices in [0, 6]"})")
        << big;
  }
}

TEST(serve_wire, NumberScanMatchesGrammarOracle) {
  // Random tokens over the characters JSON numbers are made of (and 'x'),
  // plus every spelling of 0 and 1 the tests above list and integers that
  // wrap a 32-bit mantissa, each placed as an arch element, as an encoding
  // value and as the id. The oracle shares no code with the scanner:
  // std::regex decides which tokens are JSON numbers, strtof gives an
  // accepted value's bits and from_chars<long> an accepted id. A rejected
  // token reads as NaN in an array, so it gets the arch or the finiteness
  // error, and as the id it gets the id error.
  const std::regex grammar(R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
  std::vector<std::string> tokens = {
      "0", "-0", "0.0", "-0.0", "0e5", "-0.0E-3", "0.000", "1", "1.0", "1e0",
      "1E+0", "10e-1", "0.1e1", "1.000000", "1.0000001", "0x0", "+0", "0.",
      "00", ".0", "-.5", "0e", "0x1", "+1", "1.", "01", ".5", "1e", "1.e2",
      "-", "Inf", "inf", "nan", "1f",
      // Past 9 digits a uint32 mantissa wraps: 2^32 + 1 and 2^64 + 1 wrap
      // to 1, which must not read as op 1.
      "4294967296", "4294967297", "-4294967297", "18446744073709551617"};
  constexpr std::string_view kAlphabet = "0123456789-+.eEx";
  util::Rng rng(20261020);
  while (tokens.size() < 100000) {
    std::string token(static_cast<std::size_t>(rng.randint(1, 10)), ' ');
    for (char& c : token) {
      c = kAlphabet[static_cast<std::size_t>(
          rng.randint(0, static_cast<int>(kAlphabet.size()) - 1))];
    }
    tokens.push_back(std::move(token));
  }

  const arch::ArchSpace space(arch::cifar10_backbone());
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  // Arch [0, 1, 2, 3, op, 5, 6, 0, 1] for each op the token may spell.
  std::vector<std::vector<float>> arch_with_op;
  for (const arch::CandidateOp op : arch::kAllCandidateOps) {
    arch::Architecture a;
    for (const int k : {0, 1, 2, 3, 4, 5, 6, 0, 1}) {
      a.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(k)]);
    }
    a[4] = op;
    arch_with_op.push_back(space.encode(a));
  }
  const std::vector<std::string> one_hot = one_hot_values("0", "1");
  const std::vector<float> encoded = arch_with_op[4];
  // Slot 0 is op 0: its 1 sits at column 0 and a 0 at column 1.
  constexpr std::size_t kHot = 0;
  constexpr std::size_t kCold = 1;
  const std::string arch_error =
      R"({"id": 9, "error": "arch entries must be integer op indices in )"
      R"([0, 6]"})";
  const std::string finite_error =
      R"({"id": 3, "error": "encoding values must be finite"})";
  const std::string one_hot_error =
      R"({"id": 3, "error": "encoding must be one-hot: each value 0 or 1, )"
      R"(one 1 per slot"})";
  const std::string id_error =
      R"({"id": -1, "error": "id must be an integer"})";
  const auto answer = [&space](const std::string& line) {
    return serve::wire::parse_request(line, space);
  };

  std::size_t mismatches = 0;
  std::size_t numbers = 0;
  std::size_t ops = 0;
  const auto check = [&mismatches](bool ok, const std::string& what) {
    if (!ok && ++mismatches <= 10) ADD_FAILURE() << what;
  };
  for (const std::string& token : tokens) {
    const bool number = std::regex_match(token, grammar);
    const float v = number ? std::strtof(token.c_str(), nullptr)
                           : std::numeric_limits<float>::quiet_NaN();
    numbers += number ? 1 : 0;

    const auto in_arch = answer(R"({"id": 9, "arch": [0, 1, 2, 3, )" + token +
                                ", 5, 6, 0, 1]}");
    if (v >= 0.0F && v < static_cast<float>(arch::kNumCandidateOps) &&
        v == std::floor(v)) {
      ++ops;
      check(in_arch.ok && in_arch.request.encoding ==
                              arch_with_op[static_cast<std::size_t>(v)],
            "arch op " + token + ": " + in_arch.error);
    } else {
      check(!in_arch.ok &&
                serve::wire::error_line(in_arch.request.id, in_arch.error) ==
                    arch_error,
            "arch error " + token);
    }

    // A 1 replaces the 1 at column kHot; anything else replaces a 0.
    const std::size_t at = v == 1.0F ? kHot : kCold;
    std::vector<std::string> values = one_hot;
    values[at] = token;
    const auto in_encoding = answer(encoding_request(3, values));
    if (v == 0.0F || v == 1.0F) {
      std::vector<float> want = encoded;
      want[at] = v;
      const std::vector<float>& got = in_encoding.request.encoding;
      const bool same_bits =
          in_encoding.ok && got.size() == want.size() &&
          std::equal(want.begin(), want.end(), got.begin(),
                     [&bits](float a, float b) { return bits(a) == bits(b); });
      check(same_bits, "encoding value " + token + ": " + in_encoding.error);
    } else {
      check(!in_encoding.ok &&
                serve::wire::error_line(in_encoding.request.id,
                                        in_encoding.error) ==
                    (std::isfinite(v) ? one_hot_error : finite_error),
            "encoding error " + token);
    }

    const auto as_id =
        answer(R"({"id": )" + token + R"(, "arch": [0,1,2,3,4,5,6,0,1]})");
    long id = 0;
    const char* const last = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), last, id);
    if (number && stop == last && ec == std::errc()) {
      check(as_id.ok && as_id.request.id == id,
            "id " + token + ": " + as_id.error);
    } else {
      check(!as_id.ok && serve::wire::error_line(as_id.request.id,
                                                 as_id.error) == id_error,
            "id error " + token);
    }
  }
  EXPECT_EQ(mismatches, 0U);
  // The random tokens reach every branch of the grammar: about a fifth are
  // numbers, and thousands of those spell an op index.
  EXPECT_GT(numbers, 10000U);
  EXPECT_GT(ops, 1000U);
}

TEST(serve_wire, EncodingMustBeOneHot) {
  // None of these names an architecture: argmax-decoding would answer each
  // as arch [0, ..., 0], under a cache entry of its own.
  const auto width = static_cast<std::size_t>(
      arch::ArchSpace(arch::cifar10_backbone()).encoding_width());
  const auto filled = [width](const char* v) {
    return std::vector<std::string>(width, v);
  };
  std::vector<std::string> single_one = filled("0");
  single_one[0] = "1";
  constexpr const char* kNotOneHot =
      R"({"id": 3, "error": "encoding must be one-hot: each value 0 or 1, )"
      R"(one 1 per slot"})";
  for (const auto& values : {filled("0"), filled("-5"), filled("1e30"),
                             filled("0.5"), single_one}) {
    EXPECT_EQ(error_for(encoding_request(3, values)), kNotOneHot) << values[0];
  }
  // Two 1s in one slot, a 1 beside a soft value, and a value just off 1.
  std::vector<std::string> two_ones = one_hot_values("0", "1");
  two_ones[1] = "1";
  EXPECT_EQ(error_for(encoding_request(3, two_ones)), kNotOneHot);
  std::vector<std::string> soft_beside_one = one_hot_values("0", "1");
  soft_beside_one[1] = "0.5";
  EXPECT_EQ(error_for(encoding_request(3, soft_beside_one)), kNotOneHot);
  EXPECT_EQ(error_for(encoding_request(3, one_hot_values("0", "1.0000001"))),
            kNotOneHot);
  // A wrong width keeps its own message.
  EXPECT_EQ(error_for(R"({"id": 3, "encoding": [1, 0]})"),
            R"({"id": 3, "error": "encoding has the wrong width"})");
  EXPECT_EQ(error_for(encoding_request(3, one_hot_values("0", "1"))), "");
}

TEST(serve_wire, IdMustBeSpelledAsAJsonInteger) {
  for (const char* bad : {"+1", "01", "0x1", "-", "- 1"}) {
    const std::string line =
        std::string(R"({"id": )") + bad + R"(, "arch": [0,1,2,3,4,5,6,0,1]})";
    EXPECT_EQ(error_for(line), R"({"id": -1, "error": "id must be an integer"})")
        << bad;
  }
  const arch::ArchSpace space(arch::cifar10_backbone());
  EXPECT_EQ(serve::wire::parse_request(
                R"({"id": -0, "arch": [0,1,2,3,4,5,6,0,1]})", space)
                .request.id,
            0);
}

// --- wire whitespace: JSON's four characters only ---------------------------

TEST(serve_wire, OnlyJsonWhitespaceSeparatesTokens) {
  // Vertical tab and form feed are C isspace but not JSON whitespace: each
  // line below is one error, wherever the stray character sits.
  EXPECT_EQ(error_for("\v{\"id\":1,\"arch\":[0,1,2,3,4,5,6,0,1]}\f"),
            kNotOneObject);
  EXPECT_EQ(error_for("{\"id\":2,\"arch\":[0,\f1,2,3,4,5,6,0,1]}"),
            R"({"id": 2, "error": "arch entries must be integer op )"
            R"(indices in [0, 6]"})");
  EXPECT_EQ(error_for("{\"id\":\v3,\"arch\":[0,1,2,3,4,5,6,0,1]}"),
            R"({"id": -1, "error": "id must be an integer"})");
  // Space, tab, line feed and carriage return still separate tokens.
  EXPECT_EQ(
      error_for("\r{\"id\": \t3,\n\"arch\":[0,\r1,2,3,4,5,6,0,1]}\n"), "");
}

// --- wire grammar: one pass over the members, a closed key set -------------
//
// Each line below breaks the request grammar in one place. A parser that
// searches the raw line for each key answers it; it must get exactly one
// error line.

constexpr const char* kArch = R"("arch":[0,1,2,3,4,5,6,0,1])";

constexpr const char* kDuplicateKey =
    R"({"id": -1, "error": "request names a key twice"})";

TEST(serve_wire, IdNestedUnderAnotherKeyIsNotTheId) {
  // Not answered under id 99, an id another request may own.
  EXPECT_EQ(error_for(std::string(R"({"x":{"id":99},"id":1,)") + kArch + "}"),
            kUnknownKey);
}

TEST(serve_wire, ArchNestedUnderAnotherKeyIsNotTheArch) {
  // Not answered for the nested all-6 arch.
  EXPECT_EQ(error_for(std::string(
                          R"({"x":["id",{"arch":[6,6,6,6,6,6,6,6,6]}],)") +
                      kArch + "}"),
            kUnknownKey);
}

TEST(serve_wire, EncodingNestedUnderAnotherKeyIsNotASecondKey) {
  // Not the false error "not both".
  EXPECT_EQ(error_for(std::string(R"({"x":{"encoding":[1]},)") + kArch + "}"),
            kUnknownKey);
}

TEST(serve_wire, TrailingCommaAfterTheLastMemberIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch + ",}"),
            kNotOneObject);
}

TEST(serve_wire, LeadingCommaBeforeTheFirstMemberIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({,"id":1,)") + kArch + "}"),
            kNotOneObject);
}

TEST(serve_wire, DoubleCommaBetweenMembersIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,,)") + kArch + "}"),
            kNotOneObject);
}

TEST(serve_wire, MissingCommaBetweenMembersIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch + R"( "x":1})"),
            kNotOneObject);
  EXPECT_EQ(error_for(std::string(R"({"id":1 )") + kArch + "}"),
            R"({"id": -1, "error": "id must be an integer"})");
}

TEST(serve_wire, MissingColonAfterAKeyIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id" 3,)") + kArch + "}"),
            kNotOneObject);
}

TEST(serve_wire, UnquotedKeyIsAnError) {
  EXPECT_EQ(error_for(std::string("{id:3,") + kArch + "}"), kNotOneObject);
}

TEST(serve_wire, DuplicateIdIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":2,"id":3,)") + kArch + "}"),
            kDuplicateKey);
}

TEST(serve_wire, DuplicateArchIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch +
                      R"(,"arch":[6,6,6,6,6,6,6,6,6]})"),
            kDuplicateKey);
}

TEST(serve_wire, MalformedObjectUnderAnUnknownKeyIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch +
                      R"(,"zzz":{"a":[1,}}})"),
            kUnknownKey);
}

TEST(serve_wire, MisspelledLiteralUnderAnUnknownKeyIsAnError) {
  EXPECT_EQ(
      error_for(std::string(R"({"id":1,)") + kArch + R"(,"zzz":tru})"),
      kUnknownKey);
}

TEST(serve_wire, UnclosedArrayUnderAnUnknownKeyIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch + R"(,"zzz":[})"),
            kUnknownKey);
}

TEST(serve_wire, NonJsonNumberUnderAnUnknownKeyIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch + R"(,"z":01})"),
            kUnknownKey);
}

TEST(serve_wire, RawTabInsideAStringIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch +
                      ",\"note\":\"a\tb\"}"),
            kUnknownKey);
  EXPECT_EQ(error_for(std::string("{\"i\td\":1,") + kArch + "}"),
            kUnknownKey);
}

TEST(serve_wire, InvalidEscapeInsideAStringIsAnError) {
  EXPECT_EQ(error_for(std::string(R"({"id":1,)") + kArch +
                      R"(,"note":"a\q"})"),
            kUnknownKey);
}

TEST(serve_wire, KeysAreMatchedByTheirRawBytes) {
  // "\u0069d" decodes to "id", but no request key is spelled with an
  // escape, and the parser has no escape decoder to be fooled by.
  EXPECT_EQ(error_for(std::string(R"({"\u0069d":3,)") + kArch + "}"),
            kUnknownKey);
  EXPECT_EQ(error_for(std::string(R"({"id ":3,)") + kArch + "}"), kUnknownKey);
  EXPECT_EQ(error_for(std::string(R"({"ID":3,)") + kArch + "}"), kUnknownKey);
}

TEST(serve_wire, MemberOrderNeverChangesTheAnswer) {
  // Value errors are checked once the object has closed, so they carry
  // the id wherever it sits; syntax errors inside an array carry -1
  // wherever the id sits.
  const std::string wrong_width =
      R"({"id": 5, "error": "arch must list one op index per searchable )"
      R"(slot"})";
  EXPECT_EQ(error_for(R"({"id":5,"arch":[1,2]})"), wrong_width);
  EXPECT_EQ(error_for(R"({"arch":[1,2],"id":5})"), wrong_width);
  const std::string bad_array =
      R"({"id": -1, "error": "request needs an 'encoding' or 'arch' array"})";
  EXPECT_EQ(error_for(R"({"id":5,"arch":[0,,1,2,3,4,5,6,0,1]})"), bad_array);
  EXPECT_EQ(error_for(R"({"arch":[0,,1,2,3,4,5,6,0,1],"id":5})"), bad_array);
  const arch::ArchSpace space(arch::cifar10_backbone());
  const auto first = serve::wire::parse_request(
      std::string(R"({"id":8,)") + kArch + "}", space);
  const auto last = serve::wire::parse_request(
      std::string("{") + kArch + R"(,"id":8})", space);
  ASSERT_TRUE(first.ok && last.ok);
  EXPECT_EQ(first.request.id, last.request.id);
  EXPECT_EQ(first.request.encoding, last.request.encoding);
}

TEST(serve_options, FromEnvParsesAndIgnoresGarbage) {
  setenv("DANCE_SERVE_CACHE_CAP", "128", 1);
  auto opts = serve::Service::Options::from_env();
  EXPECT_EQ(opts.cache_capacity, 128U);

  setenv("DANCE_SERVE_CACHE_CAP", "garbage", 1);
  opts = serve::Service::Options::from_env();
  EXPECT_EQ(opts.cache_capacity, serve::Service::Options{}.cache_capacity);

  unsetenv("DANCE_SERVE_CACHE_CAP");
}

}  // namespace

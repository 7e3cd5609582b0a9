// Unit tests for the dance::serve cost-query service layer: LRU cache
// semantics, one caller at a time in the backend, backend correctness
// against the ground-truth toolchain and the Service facade wiring. Suite
// names carry a lowercase "serve_" prefix on purpose: `ctest -R serve`
// selects exactly the serve suites (including the concurrent property
// suites, which CI runs under TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
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
  serve::ExactBackend backend(table_, accel::edap_cost());
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

TEST_F(serve_service, ExactBackendRejectsWrongWidth) {
  serve::ExactBackend backend(table_, accel::edap_cost());
  const Request bad{{1.0F, 2.0F}};
  EXPECT_THROW((void)backend.query_batch({&bad, 1}), std::invalid_argument);
}

TEST_F(serve_service, SecondIdenticalQueryIsACacheHit) {
  serve::ExactBackend exact(table_, accel::edap_cost());
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

TEST_F(serve_service, QueryManyPreservesOrderAndMemoizes) {
  serve::ExactBackend exact(table_, accel::edap_cost());
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
  serve::ExactBackend backend(table_, accel::edap_cost());
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

/// An encoding line of the backbone's width with `bad` at column 5.
std::string encoding_line(long id, int width, const char* bad) {
  std::string line = "{\"id\": " + std::to_string(id) + ", \"encoding\": [";
  for (int i = 0; i < width; ++i) {
    if (i != 0) line += ", ";
    line += i == 5 ? bad : "0";
  }
  return line + "]}";
}

TEST_F(serve_service, WireRejectsNonFiniteEncodingWithoutCaching) {
  serve::ExactBackend backend(table_, accel::edap_cost());
  serve::Service service(backend, serve::Service::Options{});
  const int width = arch_space_.encoding_width();

  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e39"}) {
    const std::string out = serve::wire::answer_line(
        encoding_line(3, width, bad), arch_space_, service);
    EXPECT_EQ(out, R"({"id": 3, "error": "encoding values must be finite"})")
        << bad;
    EXPECT_EQ(service.stats().cache.entries, 0U) << bad;
  }
  // Soft (non-one-hot) but finite encodings stay valid surrogate input.
  const std::string soft = serve::wire::answer_line(
      encoding_line(4, width, "0.25"), arch_space_, service);
  EXPECT_EQ(soft.find("error"), std::string::npos) << soft;
  EXPECT_EQ(service.stats().cache.entries, 1U);
}

TEST_F(serve_service, WireRangeChecksArchBeforeCasting) {
  serve::ExactBackend backend(table_, accel::edap_cost());
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

TEST(serve_wire, StringValueSpelledLikeAKeyDoesNotShadowTheKey) {
  // `"model": "encoding"` carries the key name "encoding" as a value. It
  // must not be read as the "encoding" key (which would take the arch array
  // as a 9-float encoding: "encoding has the wrong width"); a key matches
  // only where its quoted name is followed by ':'.
  const arch::ArchSpace space(arch::cifar10_backbone());
  const std::string shadowed =
      R"({"id": 2, "model": "encoding", "arch": [0,1,2,3,4,5,6,0,1]})";
  const std::string reordered =
      R"({"id": 2, "arch": [0,1,2,3,4,5,6,0,1], "model": "encoding"})";
  const auto parsed = serve::wire::parse_request(shadowed, space);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.id, 2);
  EXPECT_EQ(parsed.request.encoding,
            serve::wire::parse_request(reordered, space).request.encoding);
  EXPECT_EQ(serve::wire::parse_request(
                R"({"k": "id", "id" : 7, "arch": [0,1,2,3,4,5,6,0,1]})", space)
                .request.id,
            7);
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
  // A brace inside a string literal does not close the object.
  EXPECT_EQ(error_for(R"({"id":4,"arch":[0,1,2,3,4,5,6,0,1],"note":"}")"),
            kNotOneObject);
  EXPECT_EQ(error_for(R"({"id":4,"arch":[0,1,2,3,4,5,6,0,1],"note":"}"})"), "");
}

TEST(serve_wire, ObjectWrappedInAnArrayIsAnError) {
  EXPECT_EQ(error_for(R"([{"id":5,"arch":[0,1,2,3,4,5,6,0,1]}])"),
            kNotOneObject);
  EXPECT_EQ(error_for(R"(x{"id":5,"arch":[0,1,2,3,4,5,6,0,1]})"),
            kNotOneObject);
}

TEST(serve_wire, RequestWithBothArchAndEncodingIsAnError) {
  // Neither key may silently win: the line is ambiguous, in either order.
  const int width =
      arch::ArchSpace(arch::cifar10_backbone()).encoding_width();
  const std::string enc = encoding_line(6, width, "0");
  const std::string arch = R"("arch": [0,1,2,3,4,5,6,0,1])";
  const std::string want =
      R"({"id": 6, "error": "request must have an 'encoding' or an 'arch', )"
      R"(not both"})";
  EXPECT_EQ(error_for(enc.substr(0, enc.size() - 1) + ", " + arch + "}"),
            want);
  EXPECT_EQ(error_for("{" + arch + ", " + enc.substr(1)), want);
  // A string value spelled like the other key is not a second key.
  EXPECT_EQ(error_for(enc.substr(0, enc.size() - 1) + R"(, "model": "arch"})"),
            "");
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
  // Accepted values read as strtof reads them, bit for bit, including
  // subnormals and the largest finite float.
  const arch::ArchSpace space(arch::cifar10_backbone());
  for (const char* good : {"0", "-0", "0.25", "2.5e-1", "-1E2", "0.1",
                           "1e-40", "3.4028235e38", "1.17549435e-38",
                           "123456789"}) {
    const auto parsed =
        serve::wire::parse_request(encoding_line(3, width, good), space);
    ASSERT_TRUE(parsed.ok) << good << ": " << parsed.error;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(parsed.request.encoding[5]),
              std::bit_cast<std::uint32_t>(std::strtof(good, nullptr)))
        << good;
  }
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

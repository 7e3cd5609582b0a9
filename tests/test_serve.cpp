// Unit tests for the dance::serve cost-query service layer: LRU cache
// semantics, micro-batcher coalescing, backend correctness against the
// ground-truth toolchain and the Service facade wiring. Suite names carry a
// lowercase "serve_" prefix on purpose: `ctest -R serve` selects exactly the
// serve suites (including the concurrent property suites, which CI runs
// under TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <initializer_list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "accel/cost_function.h"
#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "registry/registry.h"
#include "registry/serving.h"
#include "serve/backend.h"
#include "serve/batcher.h"
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

TEST(serve_cache, EvictsLeastRecentlyUsedPerShard) {
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
/// records every batch size it was asked for.
class FakeBackend : public serve::CostQueryBackend {
 public:
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch_sizes_.push_back(requests.size());
    }
    calls_ += requests.size();
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

  std::vector<std::size_t> batch_sizes() {
    std::lock_guard<std::mutex> lk(mu_);
    return batch_sizes_;
  }
  std::atomic<std::uint64_t> calls_{0};

 private:
  std::mutex mu_;
  std::vector<std::size_t> batch_sizes_;
};

TEST(serve_batcher, InlineModeAnswersWithoutWorker) {
  FakeBackend backend;
  serve::MicroBatcher batcher(backend, {.max_batch = 1, .max_wait_us = 0});
  const Response r = batcher.query(Request{{2.0F, 3.0F}});
  EXPECT_DOUBLE_EQ(r.metrics.latency_ms, 5.0);
  EXPECT_EQ(batcher.stats().batches, 1U);
  EXPECT_EQ(batcher.stats().max_batch_seen, 1U);
}

TEST(serve_batcher, CoalescesConcurrentRequests) {
  FakeBackend backend;
  // Generous deadline: the count trigger should fire, not the clock.
  serve::MicroBatcher batcher(backend, {.max_batch = 4, .max_wait_us = 200000});
  constexpr int kClients = 8;
  std::vector<Request> requests;
  requests.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    requests.push_back(Request{{static_cast<float>(i), 1.0F}});
  }
  std::vector<Response> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { responses[static_cast<std::size_t>(i)] =
                                      batcher.query(requests[static_cast<std::size_t>(i)]); });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_DOUBLE_EQ(responses[static_cast<std::size_t>(i)].metrics.latency_ms,
                     static_cast<double>(i) + 1.0);
  }
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_LE(stats.max_batch_seen, 4U);
  // 8 requests with batches capped at 4 means at least two backend calls.
  EXPECT_GE(stats.batches, 2U);
}

TEST(serve_batcher, DeadlineFlushesPartialBatch) {
  FakeBackend backend;
  // Count trigger unreachable (max_batch 64); the 1 ms deadline must flush.
  serve::MicroBatcher batcher(backend, {.max_batch = 64, .max_wait_us = 1000});
  const Response r = batcher.query(Request{{4.0F}});
  EXPECT_DOUBLE_EQ(r.metrics.latency_ms, 4.0);
  EXPECT_EQ(batcher.stats().batches, 1U);
}

TEST(serve_batcher, QuerySpanSlicesIntoMaxBatchChunks) {
  FakeBackend backend;
  serve::MicroBatcher batcher(backend, {.max_batch = 4, .max_wait_us = 0});
  std::vector<Request> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back(Request{{static_cast<float>(i)}});
  }
  const auto responses = batcher.query_span(requests);
  ASSERT_EQ(responses.size(), 10U);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(responses[static_cast<std::size_t>(i)].metrics.latency_ms,
                     static_cast<double>(i));
  }
  const auto sizes = backend.batch_sizes();
  ASSERT_EQ(sizes.size(), 3U);  // 4 + 4 + 2
  EXPECT_EQ(sizes[0], 4U);
  EXPECT_EQ(sizes[2], 2U);
}

/// Throwing backend: batcher must propagate the error to every waiter.
class ThrowingBackend : public serve::CostQueryBackend {
 public:
  std::vector<Response> query_batch(std::span<const Request>) override {
    throw std::runtime_error("backend unavailable");
  }
  const char* name() const override { return "throwing"; }
};

TEST(serve_batcher, BackendExceptionReachesCaller) {
  ThrowingBackend backend;
  serve::MicroBatcher batcher(backend, {.max_batch = 2, .max_wait_us = 100});
  EXPECT_THROW((void)batcher.query(Request{{1.0F}}), std::runtime_error);
}

/// Backend whose first call blocks long enough for more requests to pile up
/// behind the drain worker; later calls answer instantly.
class SlowFirstCallBackend : public serve::CostQueryBackend {
 public:
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    if (calls_.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    std::vector<Response> out;
    out.reserve(requests.size());
    for (const Request& r : requests) {
      double sum = 0.0;
      for (float v : r.encoding) sum += v;
      out.push_back(response_with_latency(sum));
    }
    return out;
  }
  const char* name() const override { return "slow-first"; }

 private:
  std::atomic<int> calls_{0};
};

TEST(serve_batcher, LeftoverAfterPartialDrainKeepsOldestDeadline) {
  // Regression: a request left behind by a partial drain must keep its
  // original arrival time for the deadline trigger. The old code restarted
  // the clock at drain time, so the leftover below paid the backend's busy
  // window ~300 ms *plus* a fresh 400 ms wait instead of 400 ms total.
  SlowFirstCallBackend backend;
  serve::MicroBatcher batcher(backend, {.max_batch = 2, .max_wait_us = 400000});
  auto query_in_thread = [&batcher](float v) {
    return std::thread([&batcher, v] { (void)batcher.query(Request{{v}}); });
  };
  // A+B form the first batch (count trigger) and the backend blocks ~300 ms.
  // C, D and E pile up behind it; on wake the worker drains C+D (count
  // trigger again) leaving E as the partial-drain leftover.
  std::thread a = query_in_thread(1.0F);
  std::thread b = query_in_thread(2.0F);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread c = query_in_thread(3.0F);
  std::thread d = query_in_thread(4.0F);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::atomic<long> e_latency_ms{0};
  std::thread e([&] {
    const auto start = std::chrono::steady_clock::now();
    (void)batcher.query(Request{{5.0F}});
    e_latency_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  });
  for (std::thread* t : {&a, &b, &c, &d, &e}) t->join();
  // E enqueued ~220 ms before the partial drain, so with its original
  // deadline it answers ~400 ms after its own arrival; the pre-fix clock
  // restart pushed that past ~620 ms. 550 ms splits the two with slack.
  EXPECT_LT(e_latency_ms.load(), 550);
  // The deadline trigger (not the count trigger) must have answered E.
  EXPECT_GT(e_latency_ms.load(), 250);
}

TEST(serve_batcher, ShedsWhenPendingQueueFull) {
  FakeBackend backend;
  std::thread client;
  {
    // Count trigger unreachable (needs 3) and a 10 s deadline: the parked
    // request holds the single pending slot for the whole test.
    serve::MicroBatcher batcher(
        backend,
        {.max_batch = 3, .max_wait_us = 10'000'000, .max_pending = 1});
    client = std::thread([&batcher] { (void)batcher.query(Request{{1.0F}}); });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_THROW((void)batcher.query(Request{{2.0F}}), serve::Overloaded);
    EXPECT_EQ(batcher.stats().shed, 1U);
    // Shed requests never count toward the request/batch totals.
    EXPECT_EQ(batcher.stats().requests, 0U);
  }  // destructor drains the parked request, releasing the client thread
  client.join();
  EXPECT_EQ(backend.calls_.load(), 1U);
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
  serve::ExactBackend backend(table_, accel::edap_cost());
  serve::Service::Options opts;
  opts.batch.max_batch = 1;  // inline; this test is about the cache
  serve::Service service(backend, opts);

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
  EXPECT_EQ(stats.batcher.requests, 1U);  // only the miss reached the backend
}

TEST_F(serve_service, QueryManyPreservesOrderAndMemoizes) {
  serve::ExactBackend backend(table_, accel::edap_cost());
  serve::Service::Options opts;
  opts.batch.max_batch = 4;
  serve::Service service(backend, opts);

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
  EXPECT_EQ(service.stats().batcher.requests, 4U);

  // A second replay is answered entirely from the memoization cache.
  const auto replayed = service.query_many(requests);
  for (const auto& r : replayed) EXPECT_TRUE(r.cached);
  EXPECT_EQ(service.stats().cache.hits, 8U);
  EXPECT_EQ(service.stats().batcher.requests, 4U);
}

TEST_F(serve_service, StatsReportMentionsEveryBlock) {
  serve::ExactBackend backend(table_, accel::edap_cost());
  serve::Service::Options opts;
  opts.batch.max_batch = 1;
  serve::Service service(backend, opts);
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
  serve::Service::Options opts;
  opts.batch.max_batch = 1;
  serve::Service service(backend, opts);
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
  serve::Service::Options opts;
  opts.batch.max_batch = 1;
  serve::Service service(backend, opts);

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
  EXPECT_EQ(serve::wire::parse_string_field(shadowed, "model"), "encoding");
  EXPECT_EQ(serve::wire::parse_request(
                R"({"k": "id", "id" : 7, "arch": [0,1,2,3,4,5,6,0,1]})", space)
                .request.id,
            7);

  // The registry front-end answers it on the model named "encoding" — the
  // only one published; the front-end's default model does not exist.
  const std::string dir = "/tmp/dance_serve_wire_test_" +
                          std::to_string(getpid());
  mkdir(dir.c_str(), 0755);
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace hw_space = hwgen::HwSearchSpace::small();
  {
    evalnet::Evaluator::Options opts;
    opts.hwgen.hidden_dim = 16;
    opts.hwgen.num_layers = 2;
    opts.cost.hidden_dim = 16;
    opts.cost.num_layers = 2;
    util::Rng rng(21);
    evalnet::Evaluator e(space.encoding_width(), hw_space, rng, opts);
    registry::ModelRegistry writer(dir, hw_space);
    ASSERT_EQ(writer.publish("encoding", e), 1U);
  }
  registry::ModelRegistry reg(dir, hw_space);
  registry::RegistryBackend backend;
  serve::Service service(backend);
  registry::Frontend frontend(reg, service, "default");
  const std::string answer = frontend.answer_line(shadowed, space);
  EXPECT_EQ(answer.find("error"), std::string::npos) << answer;
  EXPECT_NE(answer.find("\"generation\": 1}"), std::string::npos) << answer;
}

TEST(serve_options, FromEnvParsesAndIgnoresGarbage) {
  setenv("DANCE_SERVE_CACHE_CAP", "128", 1);
  setenv("DANCE_SERVE_MAX_BATCH", "7", 1);
  setenv("DANCE_SERVE_MAX_WAIT_US", "0", 1);
  auto opts = serve::Service::Options::from_env();
  EXPECT_EQ(opts.cache_capacity, 128U);
  EXPECT_EQ(opts.batch.max_batch, 7);
  EXPECT_EQ(opts.batch.max_wait_us, 0);

  setenv("DANCE_SERVE_CACHE_CAP", "garbage", 1);
  setenv("DANCE_SERVE_MAX_BATCH", "-4", 1);
  opts = serve::Service::Options::from_env();
  EXPECT_EQ(opts.cache_capacity, serve::Service::Options{}.cache_capacity);
  EXPECT_EQ(opts.batch.max_batch, serve::Service::Options{}.batch.max_batch);

  unsetenv("DANCE_SERVE_CACHE_CAP");
  unsetenv("DANCE_SERVE_MAX_BATCH");
  unsetenv("DANCE_SERVE_MAX_WAIT_US");
}

}  // namespace

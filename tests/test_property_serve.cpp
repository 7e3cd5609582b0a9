// Property suite 4: the dance::serve determinism contracts.
//
//  * serve_batch — Evaluator::forward_batch is bit-identical to row-by-row
//    Evaluator::forward_deterministic for randomized batches of arch
//    encodings (evaluator.h's deterministic inference contract). This is
//    the property that makes batched backend calls legal: a query's answer
//    must not depend on which batch it rode in on.
//  * serve_cache_transparency — a Service answer is bit-identical to a
//    direct backend answer no matter how many threads hammer the cache
//    concurrently, both from runtime::global_pool() jobs (the
//    pool-reentrancy-safe caller mix, see docs/serve.md) and from plain
//    std::threads.
//
// Suite names carry a lowercase "serve" so `ctest -R serve` selects these
// alongside the unit suites; CI runs them under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "arch/cost_table.h"
#include "arch/ops.h"
#include "evalnet/evaluator.h"
#include "serve/backend.h"
#include "serve/service.h"
#include "testing/generators.h"
#include "testing/property.h"
#include "util/parallel.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;
using serve::Request;
using serve::Response;

/// Bitwise float comparison (covers -0.0 and NaN payloads).
bool bit_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool bit_equal_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Exact (bitwise) response equality; the transparency properties demand
/// bit-identity, not approximate agreement.
bool bit_equal_response(const Response& a, const Response& b) {
  return bit_equal_double(a.metrics.latency_ms, b.metrics.latency_ms) &&
         bit_equal_double(a.metrics.energy_mj, b.metrics.energy_mj) &&
         bit_equal_double(a.metrics.area_mm2, b.metrics.area_mm2) &&
         a.config == b.config;
}

/// Shared ground-truth fixture: tiny HW space so the LUT builds fast, one
/// copy for the whole binary (the table is immutable once built).
struct ExactFixture {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space{
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8}};
  accel::CostModel model;
  arch::CostTable table{arch_space, hw_space, model};
};

ExactFixture& exact_fixture() {
  static ExactFixture f;
  return f;
}

/// Shared frozen evaluator in eval mode — the deterministic-inference
/// configuration. Small hidden layers keep 100 trials cheap; the property
/// is about bit-identity, not predictive quality.
evalnet::Evaluator& frozen_evaluator() {
  static evalnet::Evaluator* ev = [] {
    auto& f = exact_fixture();
    util::Rng rng(0xba7c4ed);
    evalnet::Evaluator::Options opts;
    opts.hwgen.hidden_dim = 32;
    opts.hwgen.num_layers = 2;
    opts.cost.hidden_dim = 32;
    opts.cost.num_layers = 2;
    auto* e = new evalnet::Evaluator(f.arch_space.encoding_width(), f.hw_space,
                                     rng, opts);
    e->set_frozen(true);
    e->set_training(false);
    return e;
  }();
  return *ev;
}

TEST(serve_batch, ForwardBatchBitIdenticalToRowByRow) {
  auto& f = exact_fixture();
  auto& evaluator = frozen_evaluator();
  const int num_blocks = f.arch_space.num_searchable();
  const auto gen = testing_::arch_encoding_gen(num_blocks, arch::kNumCandidateOps);

  const auto result = testing_::check<tensor::Tensor>(
      "forward_batch vs row-by-row bit-identity", gen,
      [&](const tensor::Tensor& enc, util::Rng& rng) -> std::string {
        // Batch: the generated (possibly shrunk) encoding first, then a few
        // extra rows from the auxiliary stream, so batch composition varies
        // while the property stays a pure function of the trial.
        const int extra = rng.randint(0, 4);
        std::vector<std::vector<float>> rows;
        rows.emplace_back(enc.data(), enc.data() + enc.numel());
        for (int i = 0; i < extra; ++i) {
          const tensor::Tensor t = gen.sample(rng);
          rows.emplace_back(t.data(), t.data() + t.numel());
        }

        const auto batched = evaluator.forward_batch(rows);
        const int width = static_cast<int>(rows[0].size());
        const int hw_width = batched.hw_encoding.value().cols();
        for (std::size_t r = 0; r < rows.size(); ++r) {
          tensor::Variable row(tensor::Tensor::from({1, width}, rows[r]));
          const auto single = evaluator.forward_deterministic(row);
          if (!bit_equal(single.metrics.value().data(),
                         batched.metrics.value().data() + r * 3, 3)) {
            return "metrics row " + std::to_string(r) +
                   " diverges from the single-row forward";
          }
          if (!bit_equal(single.hw_encoding.value().data(),
                         batched.hw_encoding.value().data() +
                             r * static_cast<std::size_t>(hw_width),
                         static_cast<std::size_t>(hw_width))) {
            return "hw_encoding row " + std::to_string(r) +
                   " diverges from the single-row forward";
          }
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(serve_batch, DeterministicForwardIsReproducible) {
  // Same encoding, queried twice with unrelated work in between, must give
  // the same bits — forward_deterministic draws no randomness and mutates no
  // state. (This is what makes memoization sound for the surrogate backend.)
  auto& f = exact_fixture();
  auto& evaluator = frozen_evaluator();
  const auto gen =
      testing_::arch_encoding_gen(f.arch_space.num_searchable(),
                                  arch::kNumCandidateOps);

  const auto result = testing_::check<tensor::Tensor>(
      "forward_deterministic reproducibility", gen,
      [&](const tensor::Tensor& enc, util::Rng& rng) -> std::string {
        tensor::Variable row(enc);
        const auto first = evaluator.forward_deterministic(row);
        // Interleave an unrelated query to move any hidden state, if there
        // were any.
        const tensor::Tensor other = gen.sample(rng);
        (void)evaluator.forward_deterministic(tensor::Variable(other));
        const auto second = evaluator.forward_deterministic(row);
        if (!bit_equal(first.metrics.value().data(),
                       second.metrics.value().data(),
                       first.metrics.value().numel())) {
          return "metrics changed between two identical queries";
        }
        if (!bit_equal(first.hw_encoding.value().data(),
                       second.hw_encoding.value().data(),
                       first.hw_encoding.value().numel())) {
          return "hw_encoding changed between two identical queries";
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

/// Per-trial workload for the transparency fuzz: how many distinct keys the
/// hammering threads share.
testing_::Generator<long> unique_key_gen() {
  testing_::Generator<long> g;
  g.sample = [](util::Rng& rng) { return static_cast<long>(rng.randint(1, 6)); };
  g.shrink = [](const long& v) { return testing_::shrink_toward(v, 1); };
  g.show = [](const long& v) { return std::to_string(v) + " unique keys"; };
  return g;
}

/// Reduced-trial config: each trial spins up threads (or a pool sweep), so
/// the default 100 trials would dominate the TSan job for no extra coverage.
testing_::PbtConfig concurrency_config() {
  auto cfg = testing_::PbtConfig::from_env();
  cfg.trials = std::min(cfg.trials, 20);
  return cfg;
}

TEST(serve_cache_transparency, PoolHammeringMatchesDirectBackend) {
  // Callers that are all global-pool job bodies are safe: the backend's
  // nested pool loops run inline on the caller. Hammer the cache from
  // global-pool jobs and demand every answer bit-match a direct (uncached)
  // backend query.
  auto& f = exact_fixture();
  const auto result = testing_::check<long>(
      "cache transparency under pool hammering", unique_key_gen(),
      [&](const long& unique, util::Rng& rng) -> std::string {
        serve::ExactBackend backend(f.table);
        std::vector<Request> keys;
        std::vector<Response> reference;
        for (long k = 0; k < unique; ++k) {
          keys.push_back(
              Request::from_architecture(f.arch_space, f.arch_space.random(rng)));
          reference.push_back(backend.query_batch({&keys.back(), 1})[0]);
        }

        serve::Service::Options opts;
        opts.cache_capacity = 64;
        serve::Service service(backend, opts);

        const long n = 4 * unique + 8;
        std::vector<int> ok(static_cast<std::size_t>(n), 0);
        util::parallel_for(0, n, [&](long lo, long hi) {
          for (long i = lo; i < hi; ++i) {
            const std::size_t k = static_cast<std::size_t>(i % unique);
            const Response r = service.query(keys[k]);
            ok[static_cast<std::size_t>(i)] =
                bit_equal_response(r, reference[k]) ? 1 : 0;
          }
        }, /*grain=*/1);

        for (long i = 0; i < n; ++i) {
          if (!ok[static_cast<std::size_t>(i)]) {
            return "query " + std::to_string(i) +
                   " diverged from the direct backend answer";
          }
        }
        if (service.stats().cache.hits == 0) {
          return "hammering produced no cache hits; the property checked "
                 "nothing";
        }
        return "";
      },
      concurrency_config());
  EXPECT_TRUE(result.ok) << result.report;
}

TEST(serve_cache_transparency, ThreadedBatchedHammeringMatchesDirectBackend) {
  // Plain std::threads: concurrent queries take turns in the backend, race
  // into the cache, and must still each come back bit-identical to a direct
  // query.
  auto& f = exact_fixture();
  const auto result = testing_::check<long>(
      "cache transparency under batched hammering", unique_key_gen(),
      [&](const long& unique, util::Rng& rng) -> std::string {
        serve::ExactBackend backend(f.table);
        std::vector<Request> keys;
        std::vector<Response> reference;
        for (long k = 0; k < unique; ++k) {
          keys.push_back(
              Request::from_architecture(f.arch_space, f.arch_space.random(rng)));
          reference.push_back(backend.query_batch({&keys.back(), 1})[0]);
        }

        serve::Service::Options opts;
        opts.cache_capacity = 64;
        serve::Service service(backend, opts);

        constexpr int kThreads = 4;
        constexpr int kQueriesPerThread = 8;
        std::vector<std::string> errors(kThreads);
        std::vector<std::thread> clients;
        clients.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
          clients.emplace_back([&, t] {
            for (int q = 0; q < kQueriesPerThread; ++q) {
              const std::size_t k =
                  static_cast<std::size_t>((t * kQueriesPerThread + q) % unique);
              const Response r = service.query(keys[k]);
              if (!bit_equal_response(r, reference[k])) {
                errors[static_cast<std::size_t>(t)] =
                    "thread " + std::to_string(t) + " query " +
                    std::to_string(q) + " diverged from the direct answer";
                return;
              }
            }
          });
        }
        for (auto& c : clients) c.join();
        for (const auto& e : errors) {
          if (!e.empty()) return e;
        }
        return "";
      },
      concurrency_config());
  EXPECT_TRUE(result.ok) << result.report;
}

TEST(serve_cache_transparency, QueryManyMatchesSingleQueries) {
  // Bulk replay equals one-at-a-time: query_many (cache probe, dedup, one
  // backend call) must agree bitwise with a fresh service answering the
  // same requests singly.
  auto& f = exact_fixture();
  const auto result = testing_::check<long>(
      "query_many vs single-query bit-identity", unique_key_gen(),
      [&](const long& unique, util::Rng& rng) -> std::string {
        serve::ExactBackend backend(f.table);
        std::vector<Request> requests;
        for (long k = 0; k < 3 * unique; ++k) {
          if (k < unique) {
            requests.push_back(Request::from_architecture(
                f.arch_space, f.arch_space.random(rng)));
          } else {
            requests.push_back(requests[static_cast<std::size_t>(k % unique)]);
          }
        }

        serve::Service bulk_service(backend, serve::Service::Options{});
        const auto bulk = bulk_service.query_many(requests);

        serve::Service single_service(backend, serve::Service::Options{});
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const Response r = single_service.query(requests[i]);
          if (!bit_equal_response(bulk[i], r)) {
            return "request " + std::to_string(i) +
                   " differs between query_many and query";
          }
        }
        return "";
      },
      concurrency_config());
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace

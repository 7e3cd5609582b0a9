// Property suite: the dance::registry hot-swap contracts.
//
//  * registry_hotswap — client threads hammer a Service backed by the
//    RegistryBackend while a publisher thread hot-swaps the live generation
//    twice. Every response must be attributable to exactly ONE generation
//    (the one its request pinned), and bit-identical to that generation's
//    serial answer — i.e. a publish never drops, blends, or cross-pollutes
//    in-flight queries, even when the micro-batcher coalesces requests that
//    straddle a swap.
//  * registry_shadow — the shadow mirror's seeded sampling selects the
//    configured fraction of the stream (within binomial tolerance) and is
//    exactly reproducible for a fixed seed.
//
// Suite names carry a lowercase "registry_" prefix so `ctest -R registry`
// selects them alongside the unit suites; CI runs them under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "arch/backbone.h"
#include "evalnet/evaluator.h"
#include "hwgen/search_space.h"
#include "registry/registry.h"
#include "registry/shadow.h"
#include "serve/service.h"
#include "serve/types.h"
#include "testing/property.h"
#include "util/rng.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

std::string test_dir(const char* tag) {
  static std::atomic<int> counter{0};
  std::string path = "/tmp/dance_registry_pbt_" + std::to_string(getpid()) +
                     "_" + tag + "_" + std::to_string(counter.fetch_add(1));
  mkdir(path.c_str(), 0755);
  return path;
}

hwgen::HwSearchSpace small_space() {
  return hwgen::HwSearchSpace(
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8});
}

evalnet::Evaluator make_evaluator(const hwgen::HwSearchSpace& space,
                                  std::uint64_t seed) {
  arch::ArchSpace arch_space(arch::cifar10_backbone());
  evalnet::Evaluator::Options opts;
  opts.hwgen.hidden_dim = 16;
  opts.hwgen.num_layers = 2;
  opts.cost.hidden_dim = 16;
  opts.cost.num_layers = 2;
  util::Rng rng(seed);
  return evalnet::Evaluator(arch_space.encoding_width(), space, rng, opts);
}

bool bit_equal_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bit_equal_response(const serve::Response& a, const serve::Response& b) {
  return bit_equal_double(a.metrics.latency_ms, b.metrics.latency_ms) &&
         bit_equal_double(a.metrics.energy_mj, b.metrics.energy_mj) &&
         bit_equal_double(a.metrics.area_mm2, b.metrics.area_mm2) &&
         a.config == b.config;
}

/// Reduced-trial config: every trial spins up a registry directory, three
/// published generations and a thread herd; the default 100 trials would
/// dominate the TSan job for no extra coverage.
testing_::PbtConfig concurrency_config(int cap) {
  auto cfg = testing_::PbtConfig::from_env();
  cfg.trials = std::min(cfg.trials, cap);
  return cfg;
}

// --- hot swap under concurrency ---------------------------------------------

TEST(registry_hotswap, EveryResponseBitIdenticalToItsPinnedGeneration) {
  arch::ArchSpace arch_space(arch::cifar10_backbone());

  testing_::Generator<long> gen;
  gen.sample = [](util::Rng& rng) {
    return static_cast<long>(rng.randint(1, 4));  // unique encodings in play
  };
  gen.shrink = [](const long& v) { return testing_::shrink_toward(v, 1); };
  gen.show = [](const long& v) { return std::to_string(v) + " unique keys"; };

  const auto result = testing_::check<long>(
      "hot swap: one generation per response, bit-identical", gen,
      [&](const long& unique, util::Rng& rng) -> std::string {
        const std::string dir = test_dir("swap");
        registry::ModelRegistry::init(dir);
        const hwgen::HwSearchSpace space = small_space();
        registry::ModelRegistry reg(dir, space);

        // Generation oracle: every published version is pinned here, so the
        // post-check can replay any response serially on the exact
        // generation that answered it.
        std::map<std::uint64_t, registry::VersionPtr> versions;
        {
          evalnet::Evaluator e = make_evaluator(space, static_cast<std::uint64_t>(rng.randint(1, 1 << 30)));
          const std::uint64_t g = reg.publish("m", e);
          versions[g] = reg.pin("m");
        }

        std::vector<std::vector<float>> encodings;
        for (long k = 0; k < unique; ++k) {
          encodings.push_back(arch_space.encode(arch_space.random(rng)));
        }

        registry::RegistryBackend backend;
        serve::Service::Options opts;
        opts.batch.max_batch = 4;  // batches CAN straddle a swap
        opts.cache_capacity = 64;
        serve::Service service(backend, opts);

        struct Record {
          std::uint64_t expected_gen = 0;
          std::size_t key = 0;
          serve::Response response;
        };
        constexpr int kThreads = 4;
        std::vector<std::vector<Record>> records(kThreads);
        std::vector<std::string> errors(kThreads);
        std::atomic<bool> done{false};

        std::vector<std::thread> clients;
        clients.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
          clients.emplace_back([&, t] {
            int after_done = 0;
            for (int i = 0; i < 2000 && after_done < 8; ++i) {
              if (done.load(std::memory_order_relaxed)) ++after_done;
              const std::size_t k =
                  static_cast<std::size_t>(i) % encodings.size();
              const registry::VersionPtr pin = reg.pin("m");
              const serve::Request request =
                  registry::ModelRegistry::make_request(pin, encodings[k]);
              const serve::Response r = service.query(request);
              if (r.generation != pin->generation()) {
                errors[static_cast<std::size_t>(t)] =
                    "response generation " + std::to_string(r.generation) +
                    " != pinned generation " +
                    std::to_string(pin->generation());
                return;
              }
              records[static_cast<std::size_t>(t)].push_back(
                  Record{pin->generation(), k, r});
            }
          });
        }

        // The publisher: two hot swaps while the herd is in flight.
        const std::uint64_t seed2 = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
        const std::uint64_t seed3 = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
        std::thread publisher([&] {
          for (const std::uint64_t seed : {seed2, seed3}) {
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
            evalnet::Evaluator e = make_evaluator(space, seed);
            const std::uint64_t g = reg.publish("m", e);
            versions[g] = reg.pin("m");
          }
          done.store(true, std::memory_order_relaxed);
        });
        publisher.join();
        for (auto& c : clients) c.join();
        for (const auto& e : errors) {
          if (!e.empty()) return e;
        }

        // Replay every recorded response serially on its own generation:
        // bit-identity means no blending, no stale weights, no torn swap.
        std::size_t total = 0;
        for (const auto& per_thread : records) {
          for (const Record& rec : per_thread) {
            ++total;
            const auto it = versions.find(rec.expected_gen);
            if (it == versions.end()) {
              return "response claims unknown generation " +
                     std::to_string(rec.expected_gen);
            }
            const std::vector<serve::Request> one = {
                registry::ModelRegistry::make_request(it->second,
                                                      encodings[rec.key])};
            const serve::Response serial = it->second->answer(one)[0];
            if (!bit_equal_response(rec.response, serial)) {
              return "key " + std::to_string(rec.key) + " on generation " +
                     std::to_string(rec.expected_gen) +
                     " diverged from the serial answer";
            }
          }
        }
        if (total == 0) return "no responses recorded; property vacuous";
        if (reg.live_generation("m") != 3) {
          return "publisher did not reach generation 3";
        }
        return "";
      },
      concurrency_config(8));
  EXPECT_TRUE(result.ok) << result.report;
}

// --- shadow sampling --------------------------------------------------------

TEST(registry_shadow, SeededSamplingHitsTheConfiguredFraction) {
  arch::ArchSpace arch_space(arch::cifar10_backbone());

  testing_::Generator<long> gen;
  gen.sample = [](util::Rng& rng) {
    return static_cast<long>(rng.randint(10, 90));  // pct, in percent
  };
  gen.shrink = [](const long& v) { return testing_::shrink_toward(v, 50); };
  gen.show = [](const long& v) { return std::to_string(v) + "% mirror rate"; };

  const auto result = testing_::check<long>(
      "shadow sampling fraction and reproducibility", gen,
      [&](const long& pct, util::Rng& rng) -> std::string {
        const std::string dir = test_dir("shadow");
        registry::ModelRegistry::init(dir);
        const hwgen::HwSearchSpace space = small_space();
        registry::ModelRegistry reg(dir, space);
        {
          evalnet::Evaluator live = make_evaluator(space, static_cast<std::uint64_t>(rng.randint(1, 1 << 30)));
          evalnet::Evaluator cand = make_evaluator(space, static_cast<std::uint64_t>(rng.randint(1, 1 << 30)));
          if (reg.publish("m", live) != 1) return "live publish != gen 1";
          if (reg.publish("m", cand, /*as_candidate=*/true) != 2) {
            return "candidate publish != gen 2";
          }
        }
        const registry::VersionPtr live = reg.pin("m");

        constexpr int kStream = 400;
        std::vector<std::vector<float>> encodings;
        std::vector<serve::Response> answers;
        for (int i = 0; i < kStream; ++i) {
          encodings.push_back(arch_space.encode(arch_space.random(rng)));
          const std::vector<serve::Request> one = {
              registry::ModelRegistry::make_request(live, encodings.back())};
          answers.push_back(live->answer(one)[0]);
        }

        registry::ShadowMirror::Options opts;
        opts.pct = static_cast<double>(pct) / 100.0;
        opts.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
        opts.synchronous = true;  // compare inline; stats exact at return

        const auto run_stream = [&](registry::ShadowMirror& mirror) {
          for (int i = 0; i < kStream; ++i) {
            mirror.observe("m", encodings[i], answers[i]);
          }
          mirror.drain();
          return mirror.stats();
        };

        registry::ShadowMirror mirror(reg, opts);
        const auto stats = run_stream(mirror);

        // Binomial check: at N=400 the worst-case standard deviation is
        // 0.025, so a 0.10 tolerance is ~4 sigma — tight enough to catch a
        // broken coin, loose enough to never flake on a healthy one.
        const double frac =
            static_cast<double>(stats.sampled) / static_cast<double>(kStream);
        if (std::abs(frac - opts.pct) > 0.10) {
          return "sampled fraction " + std::to_string(frac) +
                 " is not within 0.10 of configured " +
                 std::to_string(opts.pct);
        }
        // A candidate is staged, so every sampled query is mirrored.
        if (stats.mirrored != stats.sampled) {
          return "mirrored " + std::to_string(stats.mirrored) +
                 " != sampled " + std::to_string(stats.sampled);
        }
        if (stats.disagreements > stats.mirrored) {
          return "disagreements exceed mirrored count";
        }

        // Same seed, same stream -> exactly the same sampling decisions.
        registry::ShadowMirror replay(reg, opts);
        const auto replay_stats = run_stream(replay);
        if (replay_stats.sampled != stats.sampled ||
            replay_stats.mirrored != stats.mirrored ||
            replay_stats.disagreements != stats.disagreements) {
          return "fixed-seed replay diverged: sampled " +
                 std::to_string(replay_stats.sampled) + " vs " +
                 std::to_string(stats.sampled);
        }
        return "";
      },
      concurrency_config(10));
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace

// Property suite for dance::infer — the frozen-inference compiler contracts.
//
//  * infer_fused — the fused fp32 plan is bit-identical to the autograd
//    Evaluator on randomized checkpoints (hidden width, depth, feature
//    forwarding, output scales) and randomized batch shapes. This is the
//    contract that lets serve answer from the plan while the autograd
//    Evaluator stays the oracle.
//  * infer_gemm — the blocked, cache-tiled GEMM is bit-identical to the
//    naive triple loop over randomized shapes and values, including the
//    zero-skip/non-finite-B poisoning corner.
//  * infer_hammer — concurrent Plan::run calls with per-thread Arenas are
//    race-free (TSan) and bit-identical to a serial reference.
//
// Suite names carry a lowercase "infer" so `ctest -R infer` selects these
// alongside the unit suites; CI runs them under TSan as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "evalnet/evaluator.h"
#include "hwgen/search_space.h"
#include "infer/plan.h"
#include "tensor/gemm.h"
#include "testing/generators.h"
#include "testing/property.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

bool bit_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Reduced-trial config for properties that build a fresh evaluator or spin
/// up threads per trial.
testing_::PbtConfig heavy_config(int cap) {
  auto cfg = testing_::PbtConfig::from_env();
  cfg.trials = std::min(cfg.trials, cap);
  return cfg;
}

/// One randomized frozen checkpoint + batch: the generated value is just the
/// trial's shape/seed tuple; the property materializes the evaluator from it
/// so shrinking reduces the *configuration*, not an opaque object.
struct CheckpointCase {
  int arch_width = 8;
  int hwgen_hidden = 16;
  int cost_hidden = 16;
  int num_layers = 2;
  bool feature_forwarding = true;
  int batch = 1;
  std::uint64_t seed = 1;

  [[nodiscard]] std::string to_string() const {
    return "arch_width=" + std::to_string(arch_width) +
           " hwgen_hidden=" + std::to_string(hwgen_hidden) +
           " cost_hidden=" + std::to_string(cost_hidden) +
           " num_layers=" + std::to_string(num_layers) +
           " ff=" + std::to_string(feature_forwarding) +
           " batch=" + std::to_string(batch) +
           " seed=" + std::to_string(seed);
  }
};

testing_::Generator<CheckpointCase> checkpoint_gen() {
  testing_::Generator<CheckpointCase> gen;
  gen.sample = [](util::Rng& rng) {
    CheckpointCase c;
    c.arch_width = rng.randint(2, 24);
    c.hwgen_hidden = rng.randint(4, 40);
    c.cost_hidden = rng.randint(4, 40);
    c.num_layers = rng.randint(2, 5);
    c.feature_forwarding = rng.randint(0, 1) == 1;
    c.batch = rng.randint(1, 9);
    c.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
    return c;
  };
  gen.shrink = [](const CheckpointCase& c) {
    std::vector<CheckpointCase> out;
    const auto push = [&out](CheckpointCase v) { out.push_back(v); };
    if (c.num_layers > 2) { auto v = c; v.num_layers = 2; push(v); }
    if (c.batch > 1) { auto v = c; v.batch = 1; push(v); }
    if (c.hwgen_hidden > 4) { auto v = c; v.hwgen_hidden /= 2; push(v); }
    if (c.cost_hidden > 4) { auto v = c; v.cost_hidden /= 2; push(v); }
    if (c.arch_width > 2) { auto v = c; v.arch_width /= 2; push(v); }
    if (!c.feature_forwarding) { auto v = c; v.feature_forwarding = true; push(v); }
    return out;
  };
  gen.show = [](const CheckpointCase& c) { return c.to_string(); };
  return gen;
}

hwgen::HwSearchSpace tiny_space() {
  return hwgen::HwSearchSpace(
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8});
}

std::unique_ptr<evalnet::Evaluator> build_evaluator(
    const CheckpointCase& c, const hwgen::HwSearchSpace& space) {
  util::Rng rng(c.seed);
  evalnet::Evaluator::Options opts;
  opts.hwgen.hidden_dim = c.hwgen_hidden;
  opts.hwgen.num_layers = c.num_layers;
  opts.cost.hidden_dim = c.cost_hidden;
  opts.cost.num_layers = c.num_layers;
  opts.cost.feature_forwarding = c.feature_forwarding;
  auto ev = std::make_unique<evalnet::Evaluator>(c.arch_width, space, rng, opts);
  // Randomized output scales so the fused scale multiply is exercised with
  // non-unit values (deterministic per checkpoint seed).
  ev->cost_net().set_output_scale(
      {0.5 + rng.uniform(), 1.0 + rng.uniform(), 0.25 + rng.uniform()});
  ev->set_frozen(true);
  ev->set_training(false);
  return ev;
}

std::vector<std::vector<float>> sample_rows(int n, int width, util::Rng& rng) {
  std::vector<std::vector<float>> rows(static_cast<std::size_t>(n));
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(width));
    for (auto& v : row) {
      // Mix of one-hot-ish and soft values, the encodings serving sees.
      v = rng.randint(0, 2) == 0 ? static_cast<float>(rng.randint(0, 1))
                                 : rng.uniform();
    }
  }
  return rows;
}

TEST(infer_fused, BitIdenticalToAutogradAcrossCheckpoints) {
  const auto space = tiny_space();
  const auto result = testing_::check<CheckpointCase>(
      "fused plan vs autograd bit-identity", checkpoint_gen(),
      [&](const CheckpointCase& c, util::Rng& rng) -> std::string {
        auto ev = build_evaluator(c, space);
        const infer::Plan plan = infer::Plan::compile(*ev);
        const auto rows = sample_rows(c.batch, c.arch_width, rng);

        const auto autograd = ev->forward_batch(rows);
        const tensor::Tensor stacked = evalnet::Evaluator::stack_rows(rows);
        infer::Arena arena;
        std::vector<float> metrics(static_cast<std::size_t>(c.batch) * 3);
        std::vector<float> hw(static_cast<std::size_t>(c.batch) *
                              plan.hw_width());
        plan.run(stacked.data(), c.batch, metrics.data(), hw.data(), arena);

        if (!bit_equal(autograd.metrics.value().data(), metrics.data(),
                       metrics.size())) {
          return "fused metrics differ from autograd bits";
        }
        if (!bit_equal(autograd.hw_encoding.value().data(), hw.data(),
                       hw.size())) {
          return "fused hw one-hot differs from autograd bits";
        }
        return "";
      },
      heavy_config(120));
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

/// Randomized GEMM case for the blocked-vs-naive differential.
struct GemmCase {
  int n = 1, k = 1, m = 1;
  bool poison_b = false;   ///< inject a non-finite into B
  float zero_frac = 0.0F;  ///< fraction of A entries forced to 0
  std::uint64_t seed = 1;

  [[nodiscard]] std::string to_string() const {
    return "n=" + std::to_string(n) + " k=" + std::to_string(k) +
           " m=" + std::to_string(m) +
           " poison_b=" + std::to_string(poison_b) +
           " zero_frac=" + std::to_string(zero_frac) +
           " seed=" + std::to_string(seed);
  }
};

testing_::Generator<GemmCase> gemm_gen() {
  testing_::Generator<GemmCase> gen;
  gen.sample = [](util::Rng& rng) {
    GemmCase c;
    // Straddle the 32x32 block boundaries: sizes up to 70.
    c.n = rng.randint(1, 70);
    c.k = rng.randint(1, 70);
    c.m = rng.randint(1, 40);
    c.poison_b = rng.randint(0, 4) == 0;
    c.zero_frac = rng.uniform(0.0F, 0.6F);
    c.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
    return c;
  };
  gen.shrink = [](const GemmCase& c) {
    std::vector<GemmCase> out;
    if (c.n > 1) { auto v = c; v.n = std::max(1, c.n / 2); out.push_back(v); }
    if (c.k > 1) { auto v = c; v.k = std::max(1, c.k / 2); out.push_back(v); }
    if (c.m > 1) { auto v = c; v.m = std::max(1, c.m / 2); out.push_back(v); }
    if (c.poison_b) { auto v = c; v.poison_b = false; out.push_back(v); }
    return out;
  };
  gen.show = [](const GemmCase& c) { return c.to_string(); };
  return gen;
}

TEST(infer_gemm, BlockedBitIdenticalToNaive) {
  const auto result = testing_::check<GemmCase>(
      "blocked GEMM vs naive bit-identity", gemm_gen(),
      [&](const GemmCase& c, util::Rng&) -> std::string {
        util::Rng rng(c.seed);
        std::vector<float> a(static_cast<std::size_t>(c.n) * c.k);
        std::vector<float> b(static_cast<std::size_t>(c.k) * c.m);
        for (auto& v : a) {
          v = rng.uniform() < c.zero_frac ? 0.0F : rng.normal();
        }
        for (auto& v : b) v = rng.normal();
        if (c.poison_b && !b.empty()) {
          const auto at = static_cast<std::size_t>(
              rng.randint(0, static_cast<int>(b.size()) - 1));
          b[at] = rng.randint(0, 1) == 0
                      ? std::numeric_limits<float>::quiet_NaN()
                      : std::numeric_limits<float>::infinity();
        }

        // Naive i/kk/j reference WITHOUT zero-skip: the historical autograd
        // semantics the kernel must reproduce — including 0 * NaN poison.
        std::vector<float> ref(static_cast<std::size_t>(c.n) * c.m, 0.0F);
        for (int i = 0; i < c.n; ++i) {
          for (int kk = 0; kk < c.k; ++kk) {
            const float av = a[static_cast<std::size_t>(i) * c.k + kk];
            if (av == 0.0F && !c.poison_b) continue;  // matches kernel's skip
            for (int j = 0; j < c.m; ++j) {
              ref[static_cast<std::size_t>(i) * c.m + j] +=
                  av * b[static_cast<std::size_t>(kk) * c.m + j];
            }
          }
        }

        std::vector<float> out(static_cast<std::size_t>(c.n) * c.m, 0.0F);
        tensor::gemm::gemm(a.data(), b.data(), out.data(), c.n, c.k, c.m);
        if (!bit_equal(ref.data(), out.data(), ref.size())) {
          return "blocked result differs from naive bits";
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(infer_hammer, ConcurrentRunsWithPrivateArenasAreRaceFreeAndExact) {
  // One immutable Plan shared across threads, one Arena per thread: every
  // concurrent result must bit-match the serial reference. Runs under TSan
  // in CI; each Plan::run also fans out over runtime::global_pool()
  // internally, so this exercises nested pool use from plain threads.
  const auto space = tiny_space();
  const auto result = testing_::check<CheckpointCase>(
      "concurrent plan runs vs serial reference", checkpoint_gen(),
      [&](const CheckpointCase& c, util::Rng& rng) -> std::string {
        auto ev = build_evaluator(c, space);
        const infer::Plan plan = infer::Plan::compile(*ev);
        const auto rows = sample_rows(c.batch, c.arch_width, rng);
        const tensor::Tensor stacked = evalnet::Evaluator::stack_rows(rows);
        const auto n = static_cast<std::size_t>(c.batch);
        const auto hw_n = n * static_cast<std::size_t>(plan.hw_width());

        std::vector<float> ref_metrics(n * 3);
        std::vector<float> ref_hw(hw_n);
        infer::Arena ref_arena;
        plan.run(stacked.data(), c.batch, ref_metrics.data(), ref_hw.data(),
                 ref_arena);

        constexpr int kThreads = 4;
        constexpr int kReps = 8;
        std::vector<std::string> failures(kThreads);
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&, t] {
            infer::Arena arena;
            std::vector<float> metrics(n * 3);
            std::vector<float> hw(hw_n);
            for (int rep = 0; rep < kReps; ++rep) {
              plan.run(stacked.data(), c.batch, metrics.data(), hw.data(),
                       arena);
              if (!bit_equal(ref_metrics.data(), metrics.data(),
                             metrics.size()) ||
                  !bit_equal(ref_hw.data(), hw.data(), hw.size())) {
                failures[static_cast<std::size_t>(t)] =
                    "thread result differs from serial reference";
                return;
              }
            }
          });
        }
        for (auto& th : threads) th.join();
        for (const auto& f : failures) {
          if (!f.empty()) return f;
        }
        return "";
      },
      heavy_config(10));
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace

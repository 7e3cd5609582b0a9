// Property suite for the shared blocked GEMM (tensor/gemm.h):
//
//  * infer_gemm — the GEMM, and each of its portable and AVX2 bodies, is
//    bit-identical to the naive triple loop over randomized shapes and
//    values, including the zero-skip/non-finite-B poisoning corner.
//
// The suite name carries a lowercase "infer" so `ctest -R infer` selects it
// alongside the unit suites; CI runs them under TSan as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/gemm.h"
#include "testing/generators.h"
#include "testing/property.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

bool bit_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
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

        // The dispatched kernel and both bodies it chooses between (the
        // AVX2 one only where the CPU has AVX2).
        using Body = void (*)(const float*, const float*, float*, int, int, int);
        std::vector<std::pair<std::string, Body>> bodies = {
            {"dispatched", tensor::gemm::gemm},
            {"portable", tensor::gemm::detail::gemm_portable}};
        if (tensor::gemm::detail::cpu_has_avx2()) {
          bodies.emplace_back("avx2", tensor::gemm::detail::gemm_avx2);
        }
        for (const auto& [name, body] : bodies) {
          std::vector<float> out(static_cast<std::size_t>(c.n) * c.m, 0.0F);
          body(a.data(), b.data(), out.data(), c.n, c.k, c.m);
          if (!bit_equal(ref.data(), out.data(), ref.size())) {
            return name + " result differs from naive bits";
          }
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

}  // namespace

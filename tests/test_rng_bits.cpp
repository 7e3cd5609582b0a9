// Bit-identity oracles for util::Rng's float draws. The engine and the
// samplers are written out in rng.h; here they are held to std::mt19937_64
// and fresh libstdc++ distributions on it, which is what they replaced: the
// same seed must give the same words, the same floats and the same engine
// state afterwards.
// Suite names carry the lowercase "rng_bits" prefix so `ctest -R rng_bits`
// selects exactly these tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/rng.h"

namespace {

using dance::util::Rng;

constexpr std::uint64_t kSeeds[] = {0, 1, 5489, ~std::uint64_t{0}};

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// A generator that returns one fixed word, to feed
/// std::generate_canonical a crafted input.
struct OneWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

TEST(rng_bits, EngineMatchesStdMt19937_64) {
  // 1000 words run three twists past the seeding.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    dance::util::Mt19937_64 ours(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours(), want()) << "word " << i;
    }
  }
  dance::util::Mt19937_64 defaulted;
  std::mt19937_64 want_defaulted;
  EXPECT_EQ(defaulted(), want_defaulted());
}

TEST(rng_bits, CanonicalMatchesGenerateCanonicalOnCraftedWords) {
  std::vector<std::uint64_t> words = {
      0,
      1,
      (1ULL << 24) - 1,          // below 2^24: converts exactly
      12345,
      (1ULL << 63) - 1,          // top bit clear, rounds up to 2^63
      1ULL << 63,                // top bit set
      0x8000000000000001ULL,
      // Top bit set and one past a halfway point between floats: only the
      // sticky bit makes the halved word round up.
      (1ULL << 63) + (1ULL << 39) + 1,
      (1ULL << 63) + (3ULL << 39) + 1,
      0xC000008000000001ULL,
      // At and past 2^64 - 2^39 the float rounds up to 2^64, and the
      // result is clamped below 1.
      ~std::uint64_t{0} - (1ULL << 39) + 1,
      ~std::uint64_t{0} - 1,
      ~std::uint64_t{0},
      ~std::uint64_t{0} - (1ULL << 39),  // just below: rounds down
  };
  for (int p = 0; p < 64; ++p) {
    const std::uint64_t w = 1ULL << p;
    words.push_back(w - 1);
    words.push_back(w);
    words.push_back(w + 1);
  }
  for (const std::uint64_t word : words) {
    SCOPED_TRACE(word);
    OneWord gen{word};
    const float want = std::generate_canonical<float, 24>(gen);
    const float got = dance::util::canonical_float(word);
    EXPECT_EQ(bits(got), bits(want));
    EXPECT_LT(got, 1.0F);
  }
}

TEST(rng_bits, NormalMatchesStdNormalDistribution) {
  // Standard, shifted and He-initialisation (sqrt(2 / fan_in)) scales:
  // 1.2M draws in all.
  const std::pair<float, float> params[] = {
      {0.0F, 1.0F}, {0.0F, std::sqrt(2.0F / 48.0F)}, {0.5F, 0.1F}, {-3.0F, 2.5F}};
  for (const std::uint64_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937_64 want(seed);
    for (const auto& [mean, sd] : params) {
      SCOPED_TRACE(::testing::Message() << seed << " N(" << mean << ", " << sd << ")");
      for (int i = 0; i < 75000; ++i) {
        const float w = std::normal_distribution<float>(mean, sd)(want);
        ASSERT_EQ(bits(ours.normal(mean, sd)), bits(w)) << "draw " << i;
      }
    }
    EXPECT_EQ(ours.engine()(), want());
  }
}

TEST(rng_bits, UniformAndGumbelMatchStdUniformRealDistribution) {
  const std::pair<float, float> ranges[] = {
      {0.0F, 1.0F}, {-1.0F, 1.0F}, {0.1F, 2.0F}, {-1e-3F, 7.5F}};
  for (const std::uint64_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937_64 want(seed);
    for (const auto& [lo, hi] : ranges) {
      SCOPED_TRACE(::testing::Message() << seed << " U[" << lo << ", " << hi << ")");
      for (int i = 0; i < 75000; ++i) {
        const float w = std::uniform_real_distribution<float>(lo, hi)(want);
        ASSERT_EQ(bits(ours.uniform(lo, hi)), bits(w)) << "draw " << i;
      }
    }
    SCOPED_TRACE(::testing::Message() << seed << " gumbel");
    for (int i = 0; i < 300000; ++i) {
      const float u = std::uniform_real_distribution<float>(1e-10F, 1.0F - 1e-10F)(want);
      ASSERT_EQ(bits(ours.gumbel()), bits(-std::log(-std::log(u)))) << "draw " << i;
    }
    EXPECT_EQ(ours.engine()(), want());
  }
}

TEST(rng_bits, MixedDrawsStayInStep) {
  // Draws of every kind interleaved, as weight init, Gumbel noise and path
  // sampling interleave them; the std distributions are fresh per draw.
  Rng ours(7);
  std::mt19937_64 want(7);
  std::mt19937_64 order(11);
  const std::vector<float> weights = {0.5F, 0.0F, 2.0F, 1.0F};
  for (int i = 0; i < 20000; ++i) {
    SCOPED_TRACE(i);
    switch (order() % 5) {
      case 0:
        ASSERT_EQ(bits(ours.normal(0.0F, 0.2F)),
                  bits(std::normal_distribution<float>(0.0F, 0.2F)(want)));
        break;
      case 1:
        ASSERT_EQ(bits(ours.uniform()),
                  bits(std::uniform_real_distribution<float>(0.0F, 1.0F)(want)));
        break;
      case 2: {
        const float u =
            std::uniform_real_distribution<float>(1e-10F, 1.0F - 1e-10F)(want);
        ASSERT_EQ(bits(ours.gumbel()), bits(-std::log(-std::log(u))));
        break;
      }
      case 3:
        ASSERT_EQ(ours.randint(-3, 40), std::uniform_int_distribution<int>(-3, 40)(want));
        break;
      default:
        ASSERT_EQ(ours.categorical(weights),
                  std::discrete_distribution<int>(weights.begin(), weights.end())(want));
        break;
    }
  }
  EXPECT_EQ(ours.engine()(), want());
}

}  // namespace

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace dance::util {

/// 64-bit Mersenne Twister with std::mt19937_64's seeding, twist and
/// tempering, so every seed gives std::mt19937_64's word stream. The twist
/// picks its xor mask as -(y & 1) & a instead of branching on the low bit of
/// each word, a branch that mispredicts about every other word.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed = 5489U) {
    x_[0] = seed;
    for (int i = 1; i < kN; ++i) {
      const std::uint64_t prev = x_[i - 1];
      x_[i] = (prev ^ (prev >> 62)) * 6364136223846793005ULL +
              static_cast<std::uint64_t>(i);
    }
  }

  result_type operator()() {
    if (p_ >= kN) twist();
    std::uint64_t z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr int kN = 312;
  static constexpr int kM = 156;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;

  /// The twisted word from x_k's upper bits, x_{k+1}'s lower bits and x_{k+m}.
  static std::uint64_t mix(std::uint64_t xk, std::uint64_t xk1,
                           std::uint64_t xkm) {
    const std::uint64_t y = (xk & kUpper) | (xk1 & ~kUpper);
    return xkm ^ (y >> 1) ^ (-(y & 1U) & 0xb5026f5aa96619e9ULL);
  }

  void twist() {
    for (int k = 0; k < kN - kM; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + kM]);
    for (int k = kN - kM; k < kN - 1; ++k) {
      x_[k] = mix(x_[k], x_[k + 1], x_[k + kM - kN]);
    }
    x_[kN - 1] = mix(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::uint64_t x_[kN];
  int p_ = kN;
};

/// std::generate_canonical<float, 24> of one engine word: the word as a
/// float, times 2^-64, with a result that rounds up to 1 clamped just below.
/// x86-64 converts only signed 64-bit integers, so the compiler converts an
/// unsigned word on one of two paths, chosen by a branch on its top bit:
/// directly when the bit is clear, and otherwise halved, with the dropped
/// bit ORed back in as a sticky bit so the halved value rounds the same way,
/// and doubled. Both paths are computed here and the top bit selects one.
inline float canonical_float(std::uint64_t word) {
  const auto direct = std::bit_cast<std::uint32_t>(
      static_cast<float>(static_cast<std::int64_t>(word)));
  const float half =
      static_cast<float>(static_cast<std::int64_t>((word >> 1) | (word & 1U)));
  const auto halved = std::bit_cast<std::uint32_t>(half + half);
  const std::uint32_t top = 0U - static_cast<std::uint32_t>(word >> 63);
  const float r = std::bit_cast<float>((direct & ~top) | (halved & top)) * 0x1p-64F;
  return r >= 1.0F ? std::nextafter(1.0F, 0.0F) : r;
}

/// Deterministic random source used across the library.
///
/// Every stochastic component (data generation, weight init, Gumbel noise,
/// path sampling) takes an explicit `Rng&` so experiments are reproducible
/// from a single seed. The float draws are libstdc++'s distributions on
/// std::mt19937_64, written out inline: each returns the bits a fresh
/// std::uniform_real_distribution<float> or std::normal_distribution<float>
/// would.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform float in [0, 1).
  float canonical() { return canonical_float(engine_()); }

  /// Uniform float in [lo, hi).
  float uniform(float lo = 0.0F, float hi = 1.0F) {
    return canonical() * (hi - lo) + lo;
  }

  /// Standard normal sample scaled to `mean`/`stddev`: the polar method.
  /// Each call draws a fresh pair and returns its second coordinate.
  float normal(float mean = 0.0F, float stddev = 1.0F) {
    float x;
    float y;
    float r2;
    do {
      // The subtraction is in double, as in libstdc++.
      x = static_cast<float>(2.0F * canonical() - 1.0);
      y = static_cast<float>(2.0F * canonical() - 1.0);
      r2 = x * x + y * y;
    } while (r2 > 1.0F || r2 == 0.0F);
    const float mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int randint(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Gumbel(0,1) sample, used by Gumbel-softmax.
  float gumbel() {
    // -log(-log(u)) with u clamped away from 0/1 for numerical safety.
    const float u = uniform(1e-10F, 1.0F - 1e-10F);
    return -std::log(-std::log(u));
  }

  /// Sample an index from an (unnormalized) non-negative weight vector.
  /// Degenerate inputs are handled explicitly instead of handing
  /// std::discrete_distribution input it leaves implementation-defined: an
  /// empty vector throws, and an all-zero vector falls back to a uniform
  /// draw over the indices.
  int categorical(const std::vector<float>& weights) {
    if (weights.empty()) {
      throw std::invalid_argument("Rng::categorical: empty weight vector");
    }
    bool any_positive = false;
    for (float w : weights) {
      if (w > 0.0F) {
        any_positive = true;
        break;
      }
    }
    if (!any_positive) {
      return randint(0, static_cast<int>(weights.size()) - 1);
    }
    std::discrete_distribution<int> dist(weights.begin(), weights.end());
    return dist(engine_);
  }

  /// Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<int> permutation(int n) {
    std::vector<int> idx(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(idx[static_cast<std::size_t>(i)],
                idx[static_cast<std::size_t>(randint(0, i))]);
    }
    return idx;
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace dance::util

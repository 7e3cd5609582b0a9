#include "tensor/gemm.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/parallel.h"

namespace dance::tensor::gemm {

namespace {

/// Rows of A processed per tile before moving to the next kk block. Keeps a
/// kk-tile of B hot in L1/L2 while it is applied to a block of A rows.
constexpr long kRowBlock = 32;
/// kk-tile height: kKBlock rows of B (kKBlock * m floats) form the resident
/// tile. For the evaluator widths (m <= 256) this is at most 32 KiB.
constexpr int kKBlock = 32;

/// Pool grain matching the historical matmul grain: ~64k multiply-adds per
/// chunk so narrow products don't over-schedule.
long gemm_grain(int k, int m) { return std::max(1L, 65536L / std::max(1, k * m)); }

/// Computes rows [row_lo, row_hi) of C on the calling thread.
void gemm_rows(const float* a, const float* b, float* c, long row_lo,
               long row_hi, int k, int m, bool b_finite) {
  for (long i0 = row_lo; i0 < row_hi; i0 += kRowBlock) {
    const long i1 = std::min(i0 + kRowBlock, row_hi);
    for (int k0 = 0; k0 < k; k0 += kKBlock) {
      const int k1 = std::min(k0 + kKBlock, k);
      for (long i = i0; i < i1; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * m;
        for (int kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0F && b_finite) continue;
          const float* brow = b + static_cast<std::ptrdiff_t>(kk) * m;
          for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

}  // namespace

bool all_finite(const float* p, std::size_t count) {
  // A float is NaN or ±inf exactly when its exponent bits are all ones.
  // Testing the bits with no early exit lets the loop vectorise; for a
  // single-row product this scan is as long as the product itself.
  constexpr std::uint32_t kExponent = 0x7f800000U;
  std::uint32_t non_finite = 0;
  for (std::size_t i = 0; i < count; ++i) {
    non_finite |= static_cast<std::uint32_t>(
        (std::bit_cast<std::uint32_t>(p[i]) & kExponent) == kExponent);
  }
  return non_finite == 0;
}

void gemm(const float* a, const float* b, float* c, int n, int k, int m) {
  const bool b_finite =
      all_finite(b, static_cast<std::size_t>(k) * static_cast<std::size_t>(m));
  util::parallel_for(0, n, [&](long lo, long hi) {
    gemm_rows(a, b, c, lo, hi, k, m, b_finite);
  }, gemm_grain(k, m));
}

}  // namespace dance::tensor::gemm

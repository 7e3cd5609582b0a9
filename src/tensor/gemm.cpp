#include "tensor/gemm.h"

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "util/parallel.h"

namespace dance::tensor::gemm {

namespace {

// GCC vector extensions: the same source compiles to one ymm register per
// V8 in the AVX2 body and to xmm registers in the portable (SSE2) body.
// Multiply and add stay separate instructions: neither body enables FMA.
using V8 = float __attribute__((vector_size(32)));
using V4 = float __attribute__((vector_size(16)));

template <typename V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));

/// Accumulators held in registers per chunk of a C row: 8 vectors, so a
/// chunk is up to 64 floats in the AVX2 body and 32 in the portable one.
constexpr int kMaxVectors = 8;

/// kk indices compacted per pass. Bounds the on-stack index list whatever k
/// is; a row with k > kKChunk loads and stores its C chunks once per pass.
constexpr int kKChunk = 256;

/// Pool grain matching the historical matmul grain: ~64k multiply-adds per
/// chunk so narrow products don't over-schedule.
long gemm_grain(int k, int m) { return std::max(1L, 65536L / std::max(1, k * m)); }

template <typename V>
[[gnu::always_inline]] inline void load(V& v, const float* p) {
  __builtin_memcpy(&v, p, sizeof(V));
}

template <typename V>
[[gnu::always_inline]] inline void store(float* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

/// One chunk of a C row, held in NV + Tail vector registers across every
/// surviving kk: NV whole vectors from column j0, plus (Tail) the row's last
/// kLanes columns. The tail vector overlaps the chunk's last whole vector;
/// an overlapped column gets the same operations on the same operands in
/// both, so both stores write the same bits.
template <typename V, int NV, bool Tail>
[[gnu::always_inline]] inline void row_chunk(const float* arow, const float* b,
                                             float* crow, const int* idx,
                                             int cnt, int j0, int m) {
  constexpr int L = kLanes<V>;
  constexpr int kAcc = NV + (Tail ? 1 : 0);
  // Offset of the tail vector from column j0.
  const int tail_at = Tail ? m - L - j0 : 0;
  float* cj = crow + j0;
  const float* bj = b + j0;
  V acc[kAcc];
#pragma GCC unroll 8
  for (int r = 0; r < NV; ++r) load(acc[r], cj + r * L);
  if constexpr (Tail) load(acc[NV], cj + tail_at);
  for (int t = 0; t < cnt; ++t) {
    const int kk = idx[t];
    const float av = arow[kk];
    const float* brow = bj + static_cast<std::ptrdiff_t>(kk) * m;
    V bv;
#pragma GCC unroll 8
    for (int r = 0; r < NV; ++r) {
      load(bv, brow + r * L);
      acc[r] += av * bv;
    }
    if constexpr (Tail) {
      load(bv, brow + tail_at);
      acc[NV] += av * bv;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < NV; ++r) store(cj + r * L, acc[r]);
  if constexpr (Tail) store(cj + tail_at, acc[NV]);
}

/// Runs row_chunk for a run-time count of nv whole vectors, 1 <= nv <= N,
/// with the tail vector (never alongside kMaxVectors whole ones).
template <typename V, int N>
[[gnu::always_inline]] inline void chunk(int nv, bool tail, const float* arow,
                                         const float* b, float* crow,
                                         const int* idx, int cnt, int j0,
                                         int m) {
  if constexpr (N > 1) {
    if (nv < N) {
      chunk<V, N - 1>(nv, tail, arow, b, crow, idx, cnt, j0, m);
      return;
    }
  }
  if constexpr (N < kMaxVectors) {
    if (tail) {
      row_chunk<V, N, true>(arow, b, crow, idx, cnt, j0, m);
      return;
    }
  }
  row_chunk<V, N, false>(arow, b, crow, idx, cnt, j0, m);
}

/// Rows narrower than one 4-lane vector: one scalar register per column.
[[gnu::always_inline]] inline void row_narrow(const float* arow,
                                              const float* b, float* crow,
                                              const int* idx, int cnt, int m) {
  for (int j = 0; j < m; ++j) {
    float acc = crow[j];
    for (int t = 0; t < cnt; ++t) {
      acc += arow[idx[t]] * b[static_cast<std::ptrdiff_t>(idx[t]) * m + j];
    }
    crow[j] = acc;
  }
}

/// Adds the products of the cnt compacted kk of one row to its C row. The
/// row is split into chunks of at most kMaxVectors vector slots (a partial
/// vector at the end counts as a slot and rides in the last chunk), spread
/// evenly so no chunk is left with only the tail.
template <typename V>
[[gnu::always_inline]] inline void row_update(const float* arow,
                                              const float* b, float* crow,
                                              const int* idx, int cnt, int m) {
  constexpr int L = kLanes<V>;
  if (m < L) {
    if constexpr (L > 4) {
      row_update<V4>(arow, b, crow, idx, cnt, m);
    } else {
      row_narrow(arow, b, crow, idx, cnt, m);
    }
    return;
  }
  const bool has_tail = m % L != 0;
  const int slots = m / L + (has_tail ? 1 : 0);
  const int chunks = (slots + kMaxVectors - 1) / kMaxVectors;
  int j0 = 0;
  for (int ch = 0; ch < chunks; ++ch) {
    const int width = slots / chunks + (ch >= chunks - slots % chunks ? 1 : 0);
    const bool tail = has_tail && ch == chunks - 1;
    const int nv = width - (tail ? 1 : 0);
    chunk<V, kMaxVectors>(nv, tail, arow, b, crow, idx, cnt, j0, m);
    j0 += nv * L;
  }
}

/// For each 8-bit mask, the lanes of its set bits in ascending order, one
/// per byte from the low byte up, and how many there are.
struct LaneList {
  std::array<std::uint64_t, 256> lanes{};
  std::array<std::uint8_t, 256> count{};
};

constexpr LaneList kLaneLists = [] {
  LaneList t;
  for (int mask = 0; mask < 256; ++mask) {
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane & 1) != 0) {
        t.lanes[mask] |= static_cast<std::uint64_t>(lane) << (8 * t.count[mask]++);
      }
    }
  }
  return t;
}();

/// Appends to idx[cnt..] the kk in [kk0, kk0 + 8) whose a_ik survives the
/// zero-skip (±0 is skipped, NaN kept) and returns the new count. It stores
/// all 8 slots from idx + cnt; those past the new count are scratch.
[[gnu::always_inline]] inline int compact8(const float* a8, int kk0, int* idx,
                                           int cnt) {
  const __m128 zero = _mm_setzero_ps();
  const int mask = _mm_movemask_ps(_mm_cmpneq_ps(_mm_loadu_ps(a8), zero)) |
                   _mm_movemask_ps(_mm_cmpneq_ps(_mm_loadu_ps(a8 + 4), zero)) << 4;
  // Widen the 8 lane bytes to 32 bits and add kk0.
  const __m128i zeroi = _mm_setzero_si128();
  const __m128i lanes = _mm_unpacklo_epi8(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&kLaneLists.lanes[mask])),
      zeroi);
  const __m128i base = _mm_set1_epi32(kk0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(idx + cnt),
                   _mm_add_epi32(_mm_unpacklo_epi16(lanes, zeroi), base));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(idx + cnt + 4),
                   _mm_add_epi32(_mm_unpackhi_epi16(lanes, zeroi), base));
  return cnt + kLaneLists.count[mask];
}

/// Computes rows [row_lo, row_hi) of C on the calling thread. Per row and
/// kk pass, the kk whose a_ik survives the zero-skip are compacted first,
/// 8 at a time through a table of lane lists and without branches, then
/// every C chunk runs over that list. With a non-finite B nothing is
/// skipped and the list is every kk of the pass.
template <typename V>
[[gnu::always_inline]] inline void rows(const float* a, const float* b,
                                        float* c, long row_lo, long row_hi,
                                        int k, int m, bool b_finite) {
  // compact8 starts its 8 stores at slot cnt <= kk - k0 <= kKChunk - 8, so
  // they stay inside the list.
  int idx[kKChunk];
  for (long i = row_lo; i < row_hi; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * m;
    for (int k0 = 0; k0 < k; k0 += kKChunk) {
      const int k1 = std::min(k0 + kKChunk, k);
      int cnt = 0;
      if (b_finite) {
        int kk = k0;
        for (; kk + 8 <= k1; kk += 8) cnt = compact8(arow + kk, kk, idx, cnt);
        for (; kk < k1; ++kk) {
          idx[cnt] = kk;
          cnt += static_cast<int>(arow[kk] != 0.0F);
        }
      } else {
        for (int kk = k0; kk < k1; ++kk) idx[cnt++] = kk;
      }
      if (cnt > 0) row_update<V>(arow, b, crow, idx, cnt, m);
    }
  }
}

using RowsFn = void (*)(const float*, const float*, float*, long, long, int,
                        int, bool);

[[gnu::flatten]] void rows_portable(const float* a, const float* b, float* c,
                                    long lo, long hi, int k, int m,
                                    bool b_finite) {
  rows<V4>(a, b, c, lo, hi, k, m, b_finite);
}

[[gnu::flatten, gnu::target("avx2")]] void rows_avx2(
    const float* a, const float* b, float* c, long lo, long hi, int k, int m,
    bool b_finite) {
  rows<V8>(a, b, c, lo, hi, k, m, b_finite);
}

void run(RowsFn body, const float* a, const float* b, float* c, int n, int k,
         int m) {
  const bool b_finite =
      all_finite(b, static_cast<std::size_t>(k) * static_cast<std::size_t>(m));
  util::parallel_for(0, n, [&](long lo, long hi) {
    body(a, b, c, lo, hi, k, m, b_finite);
  }, gemm_grain(k, m));
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
  static const RowsFn body = detail::cpu_has_avx2() ? rows_avx2 : rows_portable;
  run(body, a, b, c, n, k, m);
}

namespace detail {

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

void gemm_portable(const float* a, const float* b, float* c, int n, int k,
                   int m) {
  run(rows_portable, a, b, c, n, k, m);
}

void gemm_avx2(const float* a, const float* b, float* c, int n, int k,
               int m) {
  run(rows_avx2, a, b, c, n, k, m);
}

}  // namespace detail

}  // namespace dance::tensor::gemm

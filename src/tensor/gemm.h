#pragma once

#include <cstddef>

namespace dance::tensor::gemm {

/// Single-precision GEMM that computes every dense product: all three of
/// tensor::ops::matmul (the forward C = A * B, and the backward dA = dC * B^T
/// and dB = A^T * dC on a transposed copy of the other operand). The
/// evaluator's training forward, its search-time gradient and the served
/// surrogate answers (Evaluator::forward_batch) all run on this one kernel,
/// so their products agree bit for bit.
///
/// Semantics: C += A * B for row-major A [n, k], B [k, m], C [n, m]. The
/// caller zero-initializes C (or passes a partial sum to accumulate into).
///
/// Kernel: one row of C at a time. The kk whose a_ik survives the zero-skip
/// are first compacted into an on-stack index list, without branches, in
/// passes of at most 256 kk. Then the row is cut into chunks of up to 8
/// vectors (64 floats with AVX2, 32 in the portable body); each chunk is
/// loaded into registers once, takes a multiply and an add per surviving kk,
/// and is stored once per pass. A row width that is not a whole number of
/// vectors ends in one vector that overlaps the previous one, so the 6-column
/// tails of widths 30, 38 and 46 stay in registers too.
///
/// Dispatch: the first call picks the AVX2 body when the CPU has AVX2 and the
/// portable (baseline ISA) body otherwise. Neither body enables FMA: a fused
/// multiply-add rounds once where the naive loop rounds twice, so it would
/// change the bits. Both bodies give the same bits.
///
/// Bit-identity contract:
///   * Each C element accumulates its k products in ascending-kk order, with
///     a separate multiply and add, the same operations as the textbook
///     i/kk/j triple loop, so the kernel is bit-identical to the naive one.
///   * Rows of C are computed independently and the kernel parallelizes over
///     row ranges on runtime::global_pool(), so results are bit-identical to
///     a serial run at any thread count (the pool's static-partitioning
///     contract, docs/runtime.md), and a row's result does not depend on
///     which other rows share its batch.
///   * NaN bits are not part of the contract: NaN lands exactly where the
///     naive loop puts one, but when both operands of an add are NaN, x86
///     keeps the first one's sign and payload, and the vectorised inner loop
///     may order the operands differently from a scalar loop.
///   * Zero-skip: a_ik == 0 (including -0.0) terms are skipped only while B
///     is finite everywhere (all_finite(B), scanned once per call): 0 * NaN
///     and 0 * inf must poison C, not vanish, so poisoned activations keep
///     propagating.
void gemm(const float* a, const float* b, float* c, int n, int k, int m);

/// True iff every element is finite (no NaN / ±inf).
[[nodiscard]] bool all_finite(const float* p, std::size_t count);

namespace detail {

/// True iff the CPU runs AVX2 code, so gemm() uses gemm_avx2's body.
[[nodiscard]] bool cpu_has_avx2();

/// gemm() on one named body, for tests that compare the two. gemm_avx2
/// requires cpu_has_avx2().
void gemm_portable(const float* a, const float* b, float* c, int n, int k,
                   int m);
void gemm_avx2(const float* a, const float* b, float* c, int n, int k, int m);

}  // namespace detail

}  // namespace dance::tensor::gemm

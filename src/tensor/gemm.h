#pragma once

#include <cstddef>

namespace dance::tensor::gemm {

/// Blocked, cache-tiled single-precision GEMM that computes every dense
/// product: all three of tensor::ops::matmul (the forward C = A * B, and the
/// backward dA = dC * B^T and dB = A^T * dC on a transposed copy of the
/// other operand). The evaluator's training forward, its search-time
/// gradient and the served surrogate answers (Evaluator::forward_batch) all
/// run on this one code object, so their products agree bit for bit.
///
/// Semantics: C += A * B for row-major A [n, k], B [k, m], C [n, m]. The
/// caller zero-initializes C (or passes a partial sum to accumulate into).
///
/// Bit-identity contract:
///   * Each C element accumulates its k products in ascending-kk order, the
///     same order as the textbook i/kk/j triple loop, so the blocked kernel
///     is bit-identical to the naive one. Blocking only re-tiles the i and
///     kk loops for cache locality; it never reorders the additions that
///     land in one element.
///   * Rows of C are computed independently and the kernel parallelizes over
///     row ranges on runtime::global_pool(), so results are bit-identical to
///     a serial run at any thread count (the pool's static-partitioning
///     contract, docs/runtime.md), and a row's result does not depend on
///     which other rows share its batch.
///   * NaN bits are not part of the contract: NaN lands exactly where the
///     naive loop puts one, but when both operands of an add are NaN, x86
///     keeps the first one's sign and payload, and the vectorised inner loop
///     may order the operands differently from a scalar loop.
///   * Zero-skip: a_ik == 0 rows of the inner loop are skipped only while B
///     is finite everywhere (all_finite(B), scanned once per call): 0 * NaN
///     and 0 * inf must poison C, not vanish, so poisoned activations keep
///     propagating.
void gemm(const float* a, const float* b, float* c, int n, int k, int m);

/// True iff every element is finite (no NaN / ±inf).
[[nodiscard]] bool all_finite(const float* p, std::size_t count);

}  // namespace dance::tensor::gemm

#pragma once

#include <vector>

#include "tensor/variable.h"
#include "util/rng.h"

namespace dance::tensor::ops {

/// Elementwise a + b (same shape).
Variable add(const Variable& a, const Variable& b);
/// [N,D] matrix plus a [D] row vector broadcast over rows (bias add).
Variable add_rowvec(const Variable& a, const Variable& bias);
/// Elementwise a - b (same shape).
Variable sub(const Variable& a, const Variable& b);
/// Elementwise a * b (same shape).
Variable mul(const Variable& a, const Variable& b);
/// a * s for scalar s.
Variable scale(const Variable& a, float s);
/// a * s where s is a trainable [1,1] (or single-element) variable broadcast
/// over all of a — used to gate candidate-op outputs by architecture
/// parameters in the supernet.
Variable scale_by(const Variable& a, const Variable& s);
/// [N,D] * [D] constant row vector broadcast over rows (per-column scaling;
/// no gradient into the row vector).
Variable mul_rowvec(const Variable& a, const Tensor& row);

/// [N,K] x [K,M] -> [N,M].
Variable matmul(const Variable& a, const Variable& b);

Variable relu(const Variable& a);
Variable sigmoid(const Variable& a);
/// Row-wise softmax of a rank-2 tensor.
Variable softmax_rows(const Variable& a);
/// Row-wise log-softmax of a rank-2 tensor (numerically stable).
Variable log_softmax_rows(const Variable& a);

/// Horizontal concatenation of rank-2 tensors with equal row counts.
Variable concat_cols(const std::vector<Variable>& parts);
/// Columns [from, to) of a rank-2 tensor.
Variable slice_cols(const Variable& a, int from, int to);

/// Scalar mean / sum over all elements.
Variable mean_all(const Variable& a);
Variable sum_all(const Variable& a);

/// Fused softmax + negative log-likelihood, averaged over the batch.
/// `labels[i]` is the class index of row i.
Variable cross_entropy(const Variable& logits, const std::vector<int>& labels);

/// Mean squared error against a constant target, averaged over all elements.
Variable mse(const Variable& pred, const Tensor& target);

/// Mean squared *relative* error (Eq. 2 of the paper):
///   mean_i (1 - pred_i / target_i)^2
/// Entries with |target| < eps are skipped (count excluded from the mean).
Variable msre(const Variable& pred, const Tensor& target, float eps = 1e-12F);

/// Fused batch normalization over the batch dimension of a [N,D] tensor.
/// In training mode uses batch statistics and updates the running buffers
/// in-place; in eval mode uses the running buffers.
Variable batchnorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   Tensor& running_mean, Tensor& running_var, float momentum,
                   float eps, bool training);

/// Row-wise Gumbel-softmax (Jang et al., 2017). When `hard` is true the
/// forward value is the one-hot argmax and the backward pass uses the
/// straight-through softmax gradient — this is the discretization trick the
/// paper uses between the hardware generation and cost estimation networks.
Variable gumbel_softmax(const Variable& logits, float tau, bool hard,
                        util::Rng& rng);

/// Straight-through row-wise hard-max: forward emits one-hot argmax rows,
/// backward passes the upstream gradient through unchanged.
Variable hard_max_st(const Variable& a);

}  // namespace dance::tensor::ops

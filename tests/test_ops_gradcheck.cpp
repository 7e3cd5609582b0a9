// Systematic numerical gradient verification for every differentiable op.
//
// Strategy: for op f and scalar reduction L = sum(f(x)), compare autograd's
// dL/dx against central differences. Stochastic ops (Gumbel) are made
// deterministic by reseeding an identical Rng for every evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/ops.h"

namespace {

using dance::tensor::Tensor;
using dance::tensor::Variable;
namespace ops = dance::tensor::ops;

/// Build a deterministic pseudo-random test tensor with entries in ~[-1, 1],
/// offset away from ReLU kinks.
Tensor make_input(std::vector<int> shape, float scale = 1.0F, float bias = 0.1F) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = scale * std::sin(0.7F * static_cast<float>(i) + 0.3F) + bias;
  }
  return t;
}

/// Compare autograd gradient of L = sum(f(x)) against central differences.
void check_gradient(const std::function<Variable(const Variable&)>& f,
                    Tensor x0, float tol = 2e-2F, float eps = 1e-3F) {
  Variable x(x0, /*requires_grad=*/true);
  Variable loss = ops::sum_all(f(x));
  loss.backward();

  for (std::size_t i = 0; i < x0.numel(); ++i) {
    auto eval = [&](float v) {
      Tensor xt = x0;
      xt[i] = v;
      Variable xv(xt);
      return static_cast<double>(ops::sum_all(f(xv)).value()[0]);
    };
    const double num = (eval(x0[i] + eps) - eval(x0[i] - eps)) / (2.0 * eps);
    EXPECT_NEAR(x.grad()[i], num, tol) << "element " << i;
  }
}

TEST(GradCheck, Add) {
  const Tensor other = make_input({2, 3}, 0.5F);
  check_gradient([&](const Variable& x) { return ops::add(x, Variable(other)); },
                 make_input({2, 3}));
}

TEST(GradCheck, Sub) {
  const Tensor other = make_input({2, 3}, 0.5F);
  check_gradient([&](const Variable& x) { return ops::sub(x, Variable(other)); },
                 make_input({2, 3}));
}

TEST(GradCheck, MulBothSides) {
  const Tensor other = make_input({2, 3}, 0.8F, 0.4F);
  check_gradient([&](const Variable& x) { return ops::mul(x, Variable(other)); },
                 make_input({2, 3}));
  check_gradient([&](const Variable& x) { return ops::mul(Variable(other), x); },
                 make_input({2, 3}));
}

TEST(GradCheck, MulSelf) {
  // x*x exercises gradient accumulation through two parent slots.
  check_gradient([&](const Variable& x) { return ops::mul(x, x); },
                 make_input({2, 2}));
}

TEST(GradCheck, Scale) {
  check_gradient([](const Variable& x) { return ops::scale(x, -2.5F); },
                 make_input({3, 2}));
}

TEST(GradCheck, ScaleByScalarVariable) {
  const Tensor base = make_input({2, 3}, 0.7F, 0.2F);
  // gradient w.r.t. the scalar gate
  check_gradient(
      [&](const Variable& s) { return ops::scale_by(Variable(base), s); },
      make_input({1, 1}, 0.5F, 0.3F));
  // gradient w.r.t. the tensor
  const Tensor gate = make_input({1, 1}, 0.5F, 0.4F);
  check_gradient(
      [&](const Variable& x) { return ops::scale_by(x, Variable(gate)); },
      make_input({2, 3}));
}

TEST(GradCheck, AddRowvecBothSides) {
  const Tensor bias = make_input({3}, 0.4F);
  check_gradient(
      [&](const Variable& x) { return ops::add_rowvec(x, Variable(bias)); },
      make_input({2, 3}));
  const Tensor mat = make_input({2, 3}, 0.6F);
  check_gradient(
      [&](const Variable& b) { return ops::add_rowvec(Variable(mat), b); },
      make_input({3}));
}

TEST(GradCheck, MulRowvecConstant) {
  const Tensor row = make_input({3}, 0.9F, 0.5F);
  check_gradient([&](const Variable& x) { return ops::mul_rowvec(x, row); },
                 make_input({2, 3}));
}

TEST(GradCheck, MatmulBothSides) {
  const Tensor b = make_input({3, 4}, 0.5F);
  check_gradient([&](const Variable& x) { return ops::matmul(x, Variable(b)); },
                 make_input({2, 3}));
  const Tensor a = make_input({2, 3}, 0.5F);
  check_gradient([&](const Variable& x) { return ops::matmul(Variable(a), x); },
                 make_input({3, 4}));
}

TEST(GradCheck, Relu) {
  check_gradient([](const Variable& x) { return ops::relu(x); },
                 make_input({3, 3}, 1.0F, 0.15F));
}

TEST(GradCheck, Sigmoid) {
  check_gradient([](const Variable& x) { return ops::sigmoid(x); },
                 make_input({2, 3}));
}

TEST(GradCheck, SoftmaxRows) {
  // Sum over softmax is constant, so weight it to get a nontrivial loss.
  const Tensor w = make_input({2, 4}, 1.0F, 0.5F);
  check_gradient(
      [&](const Variable& x) {
        return ops::mul(ops::softmax_rows(x), Variable(w));
      },
      make_input({2, 4}, 2.0F));
}

TEST(GradCheck, LogSoftmaxRows) {
  const Tensor w = make_input({2, 4}, 1.0F, 0.5F);
  check_gradient(
      [&](const Variable& x) {
        return ops::mul(ops::log_softmax_rows(x), Variable(w));
      },
      make_input({2, 4}, 2.0F));
}

TEST(GradCheck, ConcatCols) {
  const Tensor other = make_input({2, 2}, 0.5F);
  check_gradient(
      [&](const Variable& x) {
        return ops::mul(ops::concat_cols({x, Variable(other)}),
                        ops::concat_cols({x, Variable(other)}));
      },
      make_input({2, 3}));
}

TEST(GradCheck, SliceCols) {
  check_gradient(
      [](const Variable& x) {
        const Variable s = ops::slice_cols(x, 1, 3);
        return ops::mul(s, s);
      },
      make_input({2, 4}));
}

TEST(GradCheck, MeanAll) {
  check_gradient(
      [](const Variable& x) {
        const Variable m = ops::mean_all(x);
        return ops::mul(m, m);
      },
      make_input({2, 3}));
}

TEST(GradCheck, CrossEntropy) {
  check_gradient(
      [](const Variable& x) { return ops::cross_entropy(x, {1, 0}); },
      make_input({2, 3}, 1.5F), /*tol=*/1e-2F);
}

TEST(GradCheck, Mse) {
  const Tensor target = make_input({2, 3}, 0.7F, -0.2F);
  check_gradient([&](const Variable& x) { return ops::mse(x, target); },
                 make_input({2, 3}));
}

TEST(GradCheck, Msre) {
  Tensor target = make_input({2, 3}, 0.3F, 1.0F);  // strictly positive
  check_gradient([&](const Variable& x) { return ops::msre(x, target); },
                 make_input({2, 3}, 0.3F, 1.1F));
}

TEST(GradCheck, BatchNormInput) {
  // Training-mode batch norm with fixed gamma/beta; running buffers are
  // mutated per call but don't affect the training-mode output.
  Variable gamma(Tensor::full({3}, 1.3F));
  Variable beta(Tensor::full({3}, -0.2F));
  const Tensor w = make_input({4, 3}, 1.0F, 0.5F);
  check_gradient(
      [&](const Variable& x) {
        Tensor rm = Tensor::zeros({3});
        Tensor rv = Tensor::full({3}, 1.0F);
        return ops::mul(ops::batchnorm(x, gamma, beta, rm, rv, 0.1F, 1e-5F, true),
                        Variable(w));
      },
      make_input({4, 3}, 1.2F), /*tol=*/3e-2F);
}

TEST(GradCheck, GumbelSoftmaxSoftDeterministicNoise) {
  // Re-seeding makes the Gumbel noise identical across evaluations, so the
  // straight-through gradient must match the numerical one exactly.
  const Tensor w = make_input({2, 4}, 1.0F, 0.5F);
  check_gradient(
      [&](const Variable& x) {
        dance::util::Rng rng(1234);
        return ops::mul(ops::gumbel_softmax(x, 0.8F, false, rng), Variable(w));
      },
      make_input({2, 4}, 1.5F));
}

TEST(GradCheck, SumAll) {
  check_gradient(
      [](const Variable& x) {
        const Variable s = ops::sum_all(x);
        return ops::mul(s, s);
      },
      make_input({2, 2}), /*tol=*/5e-2F);
}

}  // namespace

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"

namespace {

using dance::tensor::Tensor;
using dance::tensor::Variable;
namespace ops = dance::tensor::ops;

TEST(Tensor, ZerosShapeAndFill) {
  Tensor t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6U);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0F);
  t.fill(2.5F);
  EXPECT_FLOAT_EQ(t.at(1, 2), 2.5F);
}

TEST(Tensor, FromValuesRoundTrip) {
  Tensor t = Tensor::from({2, 2}, {1.0F, 2.0F, 3.0F, 4.0F});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2.0F);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0F);
  EXPECT_FLOAT_EQ(t.at(1, 1), 4.0F);
}

TEST(Tensor, FromThrowsOnSizeMismatch) {
  EXPECT_THROW(Tensor::from({2, 2}, {1.0F}), std::invalid_argument);
}

TEST(Tensor, AddInPlaceAndScale) {
  Tensor a = Tensor::from({3}, {1.0F, 2.0F, 3.0F});
  Tensor b = Tensor::from({3}, {10.0F, 20.0F, 30.0F});
  a.add_(b);
  a.scale_(0.5F);
  EXPECT_FLOAT_EQ(a[0], 5.5F);
  EXPECT_FLOAT_EQ(a[2], 16.5F);
}

TEST(Tensor, AddInPlaceShapeMismatchThrows) {
  Tensor a = Tensor::zeros({3});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
}

TEST(Tensor, RankTwoAccessorsThrowOnRankOne) {
  Tensor t = Tensor::zeros({3});
  const Tensor& ct = t;
  EXPECT_THROW((void)t.rows(), std::logic_error);
  EXPECT_THROW((void)t.cols(), std::logic_error);
  EXPECT_THROW((void)t.at(0, 0), std::logic_error);
  EXPECT_THROW((void)ct.at(0, 0), std::logic_error);
}

TEST(Autograd, AddBackward) {
  Variable a(Tensor::from({1, 2}, {1.0F, 2.0F}), true);
  Variable b(Tensor::from({1, 2}, {3.0F, 4.0F}), true);
  Variable s = ops::sum_all(ops::add(a, b));
  EXPECT_FLOAT_EQ(s.value()[0], 10.0F);
  s.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0F);
  EXPECT_FLOAT_EQ(b.grad()[1], 1.0F);
}

TEST(Autograd, MatmulForwardValues) {
  Variable a(Tensor::from({2, 2}, {1.0F, 2.0F, 3.0F, 4.0F}), true);
  Variable b(Tensor::from({2, 2}, {5.0F, 6.0F, 7.0F, 8.0F}), true);
  Variable c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.value().at(0, 0), 19.0F);
  EXPECT_FLOAT_EQ(c.value().at(0, 1), 22.0F);
  EXPECT_FLOAT_EQ(c.value().at(1, 0), 43.0F);
  EXPECT_FLOAT_EQ(c.value().at(1, 1), 50.0F);
}

TEST(Autograd, MatmulBackward) {
  Variable a(Tensor::from({1, 2}, {1.0F, 2.0F}), true);
  Variable b(Tensor::from({2, 1}, {3.0F, 4.0F}), true);
  Variable s = ops::sum_all(ops::matmul(a, b));
  s.backward();
  // d(a.b)/da = b^T, d/db = a^T
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0F);
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0F);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0F);
  EXPECT_FLOAT_EQ(b.grad()[1], 2.0F);
}

TEST(Autograd, MatmulForwardPropagatesNaNAndInfThroughZeros) {
  // Regression: the forward zero-skip dropped 0 * NaN and 0 * inf terms,
  // silently un-poisoning results that IEEE arithmetic says are NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Variable a(Tensor::from({1, 2}, {0.0F, 1.0F}), false);
  Variable b(Tensor::from({2, 2}, {nan, inf, 2.0F, 3.0F}), false);
  Variable c = ops::matmul(a, b);
  EXPECT_TRUE(std::isnan(c.value().at(0, 0)));  // 0*NaN + 1*2
  EXPECT_TRUE(std::isnan(c.value().at(0, 1)));  // 0*inf + 1*3
}

TEST(Autograd, MatmulBackwardPropagatesNaNGradPastZeroActivations) {
  // Regression: the dB zero-skip dropped 0 * NaN upstream-gradient terms, so
  // a poisoned loss produced a clean-looking (all-zero) dB for zero
  // activations. scale-by-NaN seeds the NaN into matmul's upstream gradient.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Variable a(Tensor::from({1, 2}, {0.0F, 0.0F}), false);
  Variable b(Tensor::from({2, 1}, {3.0F, 4.0F}), true);
  Variable s = ops::sum_all(ops::scale(ops::matmul(a, b), nan));
  s.backward();
  EXPECT_TRUE(std::isnan(b.grad()[0]));
  EXPECT_TRUE(std::isnan(b.grad()[1]));
}

TEST(Autograd, ReluMasksNegative) {
  Variable a(Tensor::from({1, 3}, {-1.0F, 0.5F, 2.0F}), true);
  Variable r = ops::relu(a);
  EXPECT_FLOAT_EQ(r.value()[0], 0.0F);
  EXPECT_FLOAT_EQ(r.value()[1], 0.5F);
  Variable s = ops::sum_all(r);
  s.backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0F);
  EXPECT_FLOAT_EQ(a.grad()[1], 1.0F);
  EXPECT_FLOAT_EQ(a.grad()[2], 1.0F);
}

TEST(Autograd, ReluKeepsNaNAndMapsEveryOtherInputLikeMax) {
  // Regression: relu computed max(0, x), which maps NaN to 0 and so erased
  // the poison a NaN weight spreads through matmul (tensor/gemm.h,
  // "Zero-skip"). Row 0 meets the NaN through a live term (1.5 * NaN), row
  // 1 through a zero activation (0 * NaN), which the zero-skip must keep.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Variable h(Tensor::from({2, 2}, {0.0F, 1.5F, -2.0F, 0.0F}), false);
  Tensor w1 = Tensor::from({2, 3}, {1.0F, -1.0F, 0.5F, 2.0F, 0.25F, -3.0F});
  w1.at(1, 1) = nan;
  const Variable z = ops::matmul(h, Variable(w1, false));
  const Variable r = ops::relu(z);
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(::testing::Message() << "row " << i);
    EXPECT_TRUE(std::isnan(z.value().at(i, 1)));
    EXPECT_TRUE(std::isnan(r.value().at(i, 1)));
    for (const int j : {0, 2}) {
      const float x = z.value().at(i, j);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(r.value().at(i, j)),
                std::bit_cast<std::uint32_t>(x > 0.0F ? x : 0.0F));
    }
  }

  // Every non-NaN input keeps the bits max(0, x) gave it; -0 becomes +0.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> xs = {-0.0F, 0.0F, -1.5F, 2.0F, 1e-40F, -1e-40F,
                                 inf, -inf, nan};
  const Tensor out =
      ops::relu(Variable(Tensor::from({1, static_cast<int>(xs.size())}, xs),
                         false))
          .value();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "x=" << xs[i]);
    if (std::isnan(xs[i])) {
      EXPECT_TRUE(std::isnan(out[i]));
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(std::max(0.0F, xs[i])));
    }
  }
}

TEST(Autograd, ReluBackwardMatchesBranchyLoopBits) {
  // relu's backward adds dy masked by the bits of (y > 0). It must equal the
  // branchy `if (y > 0) dx += dy` loop bit for bit, for every stored output
  // y (-0.0 and negatives too, which the forward never stores), every
  // incoming dy (NaN and inf too) and a gradient buffer that already holds
  // values. 144 elements run both the vector body and its tail.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> ys = {-0.0F, 0.0F, -1.5F, 2.0F, 1e-40F, nan, inf, -inf};
  const std::vector<float> dys = {1.25F, -3.0F, nan, inf, -inf, -0.0F};
  const std::vector<float> priors = {0.0F, 0.75F, -2.5F};
  std::vector<float> y;
  std::vector<float> dy;
  std::vector<float> prior;
  for (const float yv : ys) {
    for (const float dv : dys) {
      for (const float pv : priors) {
        y.push_back(yv);
        dy.push_back(dv);
        prior.push_back(pv);
      }
    }
  }
  const int n = static_cast<int>(y.size());
  Variable a(Tensor::zeros({1, n}), true);
  Variable r = ops::relu(a);
  r.value() = Tensor::from({1, n}, y);
  a.node()->ensure_grad();
  a.node()->grad = Tensor::from({1, n}, prior);
  ops::sum_all(ops::mul(r, Variable(Tensor::from({1, n}, dy)))).backward();

  const Tensor& incoming = r.grad();
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    float expect = prior[u];
    if (y[u] > 0.0F) expect += incoming[u];
    const float got = a.grad()[u];
    SCOPED_TRACE(::testing::Message() << "y=" << y[u] << " dy=" << incoming[u]
                                      << " prior=" << prior[u]);
    if (std::isnan(expect)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
                std::bit_cast<std::uint32_t>(expect));
    }
  }
}

TEST(Autograd, SoftmaxRowsSumToOne) {
  Variable a(Tensor::from({2, 3}, {1.0F, 2.0F, 3.0F, -1.0F, 0.0F, 1.0F}), true);
  Variable p = ops::softmax_rows(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0F;
    for (int c = 0; c < 3; ++c) sum += p.value().at(r, c);
    EXPECT_NEAR(sum, 1.0F, 1e-6F);
  }
}

TEST(Autograd, CrossEntropyMatchesManual) {
  Variable logits(Tensor::from({1, 2}, {0.0F, 0.0F}), true);
  Variable loss = ops::cross_entropy(logits, {0});
  EXPECT_NEAR(loss.value()[0], std::log(2.0F), 1e-5F);
  loss.backward();
  // grad = p - onehot
  EXPECT_NEAR(logits.grad()[0], 0.5F - 1.0F, 1e-5F);
  EXPECT_NEAR(logits.grad()[1], 0.5F, 1e-5F);
}

TEST(Autograd, MseValueAndGrad) {
  Variable p(Tensor::from({1, 2}, {1.0F, 3.0F}), true);
  Tensor t = Tensor::from({1, 2}, {0.0F, 0.0F});
  Variable loss = ops::mse(p, t);
  EXPECT_NEAR(loss.value()[0], (1.0F + 9.0F) / 2.0F, 1e-5F);
  loss.backward();
  EXPECT_NEAR(p.grad()[0], 1.0F, 1e-5F);
  EXPECT_NEAR(p.grad()[1], 3.0F, 1e-5F);
}

TEST(Autograd, MsreIsScaleInvariant) {
  // 10% error on a small and a large target produce the same loss.
  Variable p1(Tensor::from({1, 1}, {1.1F}), true);
  Variable p2(Tensor::from({1, 1}, {1100.0F}), true);
  Variable l1 = ops::msre(p1, Tensor::from({1, 1}, {1.0F}));
  Variable l2 = ops::msre(p2, Tensor::from({1, 1}, {1000.0F}));
  EXPECT_NEAR(l1.value()[0], l2.value()[0], 1e-5F);
  EXPECT_NEAR(l1.value()[0], 0.01F, 1e-5F);
}

TEST(Autograd, ScaleByBroadcastsScalar) {
  Variable a(Tensor::from({1, 2}, {2.0F, 4.0F}), true);
  Variable s(Tensor::from({1, 1}, {0.5F}), true);
  Variable out = ops::scale_by(a, s);
  EXPECT_FLOAT_EQ(out.value()[0], 1.0F);
  ops::sum_all(out).backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.5F);
  EXPECT_FLOAT_EQ(s.grad()[0], 6.0F);  // sum of a
}

TEST(Autograd, ConcatAndSliceRoundTrip) {
  Variable a(Tensor::from({1, 2}, {1.0F, 2.0F}), true);
  Variable b(Tensor::from({1, 3}, {3.0F, 4.0F, 5.0F}), true);
  Variable cat = ops::concat_cols({a, b});
  ASSERT_EQ(cat.value().cols(), 5);
  Variable back = ops::slice_cols(cat, 2, 5);
  EXPECT_FLOAT_EQ(back.value()[0], 3.0F);
  EXPECT_FLOAT_EQ(back.value()[2], 5.0F);
  ops::sum_all(back).backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0F);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0F);
}

TEST(Autograd, BackwardRequiresScalar) {
  Variable a(Tensor::from({1, 2}, {1.0F, 2.0F}), true);
  Variable b = ops::relu(a);
  EXPECT_THROW(b.backward(), std::logic_error);
}

TEST(Autograd, GumbelSoftmaxRowsSumToOne) {
  dance::util::Rng rng(3);
  Variable a(Tensor::from({2, 4}, {0.0F, 1.0F, 2.0F, 3.0F, 1.0F, 1.0F, 1.0F, 1.0F}),
             true);
  Variable g = ops::gumbel_softmax(a, 0.7F, false, rng);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0F;
    for (int c = 0; c < 4; ++c) sum += g.value().at(r, c);
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
}

TEST(Autograd, GumbelSoftmaxHardIsOneHot) {
  dance::util::Rng rng(5);
  Variable a(Tensor::from({3, 4}, std::vector<float>(12, 0.0F)), true);
  Variable g = ops::gumbel_softmax(a, 1.0F, true, rng);
  for (int r = 0; r < 3; ++r) {
    int ones = 0;
    for (int c = 0; c < 4; ++c) {
      const float v = g.value().at(r, c);
      EXPECT_TRUE(v == 0.0F || v == 1.0F);
      ones += v == 1.0F ? 1 : 0;
    }
    EXPECT_EQ(ones, 1);
  }
}

TEST(Autograd, HardMaxStraightThrough) {
  Variable a(Tensor::from({1, 3}, {0.1F, 0.9F, 0.3F}), true);
  Variable h = ops::hard_max_st(a);
  EXPECT_FLOAT_EQ(h.value()[0], 0.0F);
  EXPECT_FLOAT_EQ(h.value()[1], 1.0F);
  ops::sum_all(h).backward();
  // straight-through: all-ones gradient
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0F);
  EXPECT_FLOAT_EQ(a.grad()[2], 1.0F);
}

}  // namespace

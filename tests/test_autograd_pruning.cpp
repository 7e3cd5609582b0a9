// The backward of zero-gated paths is skipped (ops::scale_by, Node::grad_live)
// without changing a bit of any gradient that is computed.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace {

using dance::tensor::Tensor;
using dance::tensor::Variable;
namespace ops = dance::tensor::ops;

// A two-block stand-in for the supernet's arch step: each block is
// h + sum_i g_i * o_i(h) over a hard Gumbel gate g, with
// o_i(h) = relu(h W1 + b1) W2 + b2. As in the supernet, the last gate column
// is the zero op, which has no path.
constexpr int kGates = 7;
constexpr int kPaths = kGates - 1;
constexpr int kRows = 5;
constexpr int kWidth = 10;
constexpr int kHidden = 14;
constexpr int kClasses = 4;

struct Path {
  Variable w1, b1, w2, b2;
};

struct Block {
  std::vector<Path> paths;
  Variable alpha;
};

/// Fresh leaves, the same values for the same arguments. The gate of a
/// block lands on column `live` (alpha is large there).
Block make_block(std::uint64_t seed, int live) {
  dance::util::Rng rng(seed);
  Block b;
  for (int i = 0; i < kPaths; ++i) {
    b.paths.push_back({Variable(Tensor::randn({kWidth, kHidden}, rng, 0.0F, 0.3F), true),
                       Variable(Tensor::randn({kHidden}, rng, 0.0F, 0.1F), true),
                       Variable(Tensor::randn({kHidden, kWidth}, rng, 0.0F, 0.3F), true),
                       Variable(Tensor::randn({kWidth}, rng, 0.0F, 0.1F), true)});
  }
  Tensor alpha = Tensor::randn({1, kGates}, rng, 0.0F, 0.1F);
  alpha.at(0, live) = 30.0F;
  b.alpha = Variable(std::move(alpha), true);
  return b;
}

/// How a gate-0 path enters the block sum.
enum class Feed {
  kPruned,    // scale_by(o, g): the path skips its backward
  kConstant,  // scale_by(constant copy of o, g): the path is cut off
  kUnpruned,  // o * 0 through ops::mul, which has no zero-gate rule, plus
              // the gate term on a constant copy: the arithmetic of a tape
              // that runs every path's backward
};

struct Interior {
  Variable fc1, act, fc2;
};

struct Step {
  std::array<Block, 2> blocks;
  Variable h;                                  // block 1 input, a leaf
  Variable y1;                                 // block 1 output, block 2 input
  Variable loss;
  std::array<std::vector<Interior>, 2> interior;  // per block, per path
  std::array<std::vector<bool>, 2> dead;          // per block, per path
};

Variable block_forward(const Block& b, const Variable& h, const Variable& gate,
                       Feed feed, std::vector<Interior>& interior,
                       std::vector<bool>& dead) {
  Variable acc = h;
  for (int i = 0; i < kPaths; ++i) {
    const Path& p = b.paths[static_cast<std::size_t>(i)];
    const Variable fc1 = ops::add_rowvec(ops::matmul(h, p.w1), p.b1);
    const Variable act = ops::relu(fc1);
    const Variable fc2 = ops::add_rowvec(ops::matmul(act, p.w2), p.b2);
    interior.push_back({fc1, act, fc2});
    const Variable g = ops::slice_cols(gate, i, i + 1);
    const bool is_dead = gate.value().at(0, i) == 0.0F;
    dead.push_back(is_dead);
    Variable term;
    if (!is_dead || feed == Feed::kPruned) {
      term = ops::scale_by(fc2, g);
    } else if (feed == Feed::kConstant) {
      term = ops::scale_by(Variable(fc2.value()), g);
    } else {
      term = ops::add(ops::mul(fc2, Variable(Tensor::zeros(fc2.shape()))),
                      ops::scale_by(Variable(fc2.value()), g));
    }
    acc = ops::add(acc, term);
  }
  return acc;
}

/// One forward and backward. `incoming` set: the loss is sum(y2 * incoming),
/// so dL/dy2 is exactly `incoming`; otherwise a cross-entropy head.
/// `poison` names a weight (W1 or W2) of block 2's path 1, which its gate
/// zeroes, to put a NaN into.
Step run(Feed feed, const Tensor* incoming = nullptr,
         Variable Path::*poison = nullptr) {
  Step s;
  s.blocks = {make_block(101, 2), make_block(202, kGates - 1)};
  if (poison != nullptr) {
    (s.blocks[1].paths[1].*poison).value().at(3, 4) =
        std::numeric_limits<float>::quiet_NaN();
  }
  dance::util::Rng data(303);
  s.h = Variable(Tensor::randn({kRows, kWidth}, data), true);
  const Variable head(Tensor::randn({kWidth, kClasses}, data));
  dance::util::Rng noise(404);
  std::array<Variable, 2> gates;
  for (int b = 0; b < 2; ++b) {
    gates[static_cast<std::size_t>(b)] = ops::gumbel_softmax(
        s.blocks[static_cast<std::size_t>(b)].alpha, 1.0F, /*hard=*/true, noise);
  }
  s.y1 = block_forward(s.blocks[0], s.h, gates[0], feed, s.interior[0], s.dead[0]);
  const Variable y2 =
      block_forward(s.blocks[1], s.y1, gates[1], feed, s.interior[1], s.dead[1]);
  s.loss = incoming != nullptr
               ? ops::sum_all(ops::mul(y2, Variable(*incoming)))
               : ops::cross_entropy(ops::matmul(y2, head), {0, 1, 2, 3, 0});
  s.loss.backward();
  return s;
}

/// Equal bits wherever `want` is finite, the same class (NaN or inf)
/// elsewhere: NaN bits are not part of the GEMM's contract (tensor/gemm.h).
void expect_same(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << what << " [" << i << "]";
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << what << " [" << i << "] " << got[i] << " vs " << want[i];
    }
  }
}

/// The gradients a pruned tape must reproduce: both blocks' alphas and both
/// block inputs.
void expect_same_gradients(const Step& got, const Step& want) {
  for (std::size_t b = 0; b < 2; ++b) {
    expect_same(got.blocks[b].alpha.grad(), want.blocks[b].alpha.grad(),
                "alpha " + std::to_string(b));
  }
  expect_same(got.h.grad(), want.h.grad(), "block 1 input");
  expect_same(got.y1.grad(), want.y1.grad(), "block 2 input");
}

int non_finite(const Tensor& t) {
  int count = 0;
  for (std::size_t i = 0; i < t.numel(); ++i) count += std::isfinite(t[i]) ? 0 : 1;
  return count;
}

TEST(AutogradPruning, GateZeroPathsChangeNoBit) {
  const Step pruned = run(Feed::kPruned);
  const Step constant = run(Feed::kConstant);
  const Step unpruned = run(Feed::kUnpruned);
  // The gates landed where make_block put them: block 1 keeps path 2, and
  // block 2 keeps only the zero op.
  for (int i = 0; i < kPaths; ++i) {
    EXPECT_EQ(pruned.dead[0][static_cast<std::size_t>(i)], i != 2);
    EXPECT_TRUE(pruned.dead[1][static_cast<std::size_t>(i)]);
  }
  expect_same(pruned.loss.value(), constant.loss.value(), "loss");
  expect_same_gradients(pruned, constant);
  expect_same_gradients(pruned, unpruned);
  // The live path's weights learn the same bits too.
  const Path& live = pruned.blocks[0].paths[2];
  const Path& live_ref = unpruned.blocks[0].paths[2];
  expect_same(live.w1.grad(), live_ref.w1.grad(), "live W1");
  expect_same(live.w2.grad(), live_ref.w2.grad(), "live W2");
  EXPECT_EQ(non_finite(pruned.h.grad()), 0);
}

TEST(AutogradPruning, GateZeroInteriorGetsNoGradientBuffer) {
  const Step s = run(Feed::kPruned);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < s.dead[b].size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "block " << b << " path " << i);
      const Interior& in = s.interior[b][i];
      const Path& p = s.blocks[b].paths[i];
      for (const Variable* v : {&in.fc1, &in.act, &in.fc2, &p.w1, &p.b1, &p.w2, &p.b2}) {
        EXPECT_EQ(v->grad().numel() != 0, !s.dead[b][i]);
      }
    }
  }
}

TEST(AutogradPruning, NonFiniteValuesPoisonAsWithoutPruning) {
  // Each case puts one non-finite value where only the full backward of a
  // gate-0 path spreads it: an incoming gradient of NaN or inf at one
  // element (0 * NaN and 0 * inf are NaN, and W2's product smears them over
  // the row), and a NaN weight in a gate-0 path's hidden or output layer
  // (relu passes the hidden layer's NaN on). Block 2 keeps only the zero op,
  // so its skip connection alone would carry just the one element; the
  // pruned tape must still poison what the full tape poisons.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  dance::util::Rng rng(505);
  const Tensor finite = Tensor::randn({kRows, kWidth}, rng);
  struct Case {
    const char* name;
    float value;  // placed into the incoming gradient at (1, 3), unless poison
    Variable Path::*poison;
  };
  for (const Case& c : {Case{"NaN gradient", nan, nullptr},
                        Case{"inf gradient", inf, nullptr},
                        Case{"-inf gradient", -inf, nullptr},
                        Case{"NaN W1", 0.0F, &Path::w1},
                        Case{"NaN W2", 0.0F, &Path::w2}}) {
    SCOPED_TRACE(c.name);
    Tensor incoming = finite;
    if (c.poison == nullptr) incoming.at(1, 3) = c.value;
    const Step pruned = run(Feed::kPruned, &incoming, c.poison);
    const Step unpruned = run(Feed::kUnpruned, &incoming, c.poison);
    expect_same_gradients(pruned, unpruned);
    // More poisoned than the skip connection's one element.
    EXPECT_GT(non_finite(unpruned.y1.grad()), 1);
  }
}

}  // namespace

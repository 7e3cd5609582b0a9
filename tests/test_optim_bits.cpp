// Bit-identity oracles for the optimizers. The reference below is the
// element-by-element scalar form of Sgd::step, Adam::step and
// clip_grad_norm; the library's loops must give the same bits for values,
// velocities, moments and the returned norm, over several steps, with
// gradients that are all +0, that hold -0 or NaN, and with a parameter that
// never gets a gradient buffer.
// Suite names carry the lowercase "optim_bits" prefix so `ctest -R
// optim_bits` selects exactly these tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "nn/optim.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace {

using dance::tensor::Tensor;
using dance::tensor::Variable;
namespace nn = dance::nn;

/// One parameter of the reference: an empty grad means no gradient buffer.
struct RefParam {
  std::vector<float> value;
  std::vector<float> grad;
  std::vector<float> buf1;  ///< velocity, or Adam's first moment
  std::vector<float> buf2;  ///< Adam's second moment
};

double ref_clip_grad_norm(std::vector<RefParam>& ps, double max_norm) {
  double sq = 0.0;
  for (const auto& p : ps) {
    for (std::size_t i = 0; i < p.grad.size(); ++i) {
      sq += static_cast<double>(p.grad[i]) * static_cast<double>(p.grad[i]);
    }
  }
  const double norm = std::sqrt(sq);
  if (max_norm > 0.0 && norm > max_norm) {
    const float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (auto& p : ps) {
      for (float& g : p.grad) g *= scale;
    }
  }
  return norm;
}

void ref_sgd_step(std::vector<RefParam>& ps, const nn::Sgd::Options& opts,
                  float lr) {
  if (opts.max_grad_norm > 0.0F) ref_clip_grad_norm(ps, opts.max_grad_norm);
  for (auto& p : ps) {
    if (p.grad.empty()) continue;
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      float g = p.grad[i] + opts.weight_decay * p.value[i];
      if (opts.momentum != 0.0F) {
        p.buf1[i] = opts.momentum * p.buf1[i] + g;
        g = opts.nesterov ? g + opts.momentum * p.buf1[i] : p.buf1[i];
      }
      p.value[i] -= lr * g;
    }
  }
}

void ref_adam_step(std::vector<RefParam>& ps, const nn::Adam::Options& opts,
                   float lr, long step_count) {
  const float bc1 = 1.0F - std::pow(opts.beta1, static_cast<float>(step_count));
  const float bc2 = 1.0F - std::pow(opts.beta2, static_cast<float>(step_count));
  for (auto& p : ps) {
    if (p.grad.empty()) continue;
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const float g = p.grad[i] + opts.weight_decay * p.value[i];
      p.buf1[i] = opts.beta1 * p.buf1[i] + (1.0F - opts.beta1) * g;
      p.buf2[i] = opts.beta2 * p.buf2[i] + (1.0F - opts.beta2) * g * g;
      const float mhat = p.buf1[i] / bc1;
      const float vhat = p.buf2[i] / bc2;
      p.value[i] -= lr * mhat / (std::sqrt(vhat) + opts.eps);
    }
  }
}

/// Gradient pattern of a parameter.
enum class Grad { kAllPlusZero, kAllSignedZero, kWithNegZero, kWithNaN, kNoBuffer };

constexpr Grad kPatterns[] = {Grad::kAllPlusZero, Grad::kWithNegZero, Grad::kWithNaN,
                              Grad::kNoBuffer, Grad::kAllSignedZero, Grad::kWithNegZero};
// Odd sizes leave a scalar tail after every vector width.
constexpr int kSizes[] = {37, 50, 29, 13, 21, 3};

/// The parameters under test and their reference twins.
struct Params {
  std::vector<Variable> vars;
  std::vector<RefParam> ref;

  Params() {
    dance::util::Rng rng(17);
    for (std::size_t k = 0; k < std::size(kSizes); ++k) {
      Tensor value = Tensor::randn({kSizes[k]}, rng, 0.0F, 0.5F);
      RefParam p;
      p.value.assign(value.data(), value.data() + value.numel());
      p.buf1.assign(value.numel(), 0.0F);
      p.buf2.assign(value.numel(), 0.0F);
      vars.emplace_back(std::move(value), true);
      ref.push_back(std::move(p));
    }
  }

  /// Writes step s's gradients into both. NaN arrives only on step 2, so
  /// the norm is finite, and compared as a number, on the other steps.
  void set_grads(int s, dance::util::Rng& rng) {
    for (std::size_t k = 0; k < vars.size(); ++k) {
      if (kPatterns[k] == Grad::kNoBuffer) continue;
      auto& node = *vars[k].node();
      node.ensure_grad();
      for (std::size_t i = 0; i < node.grad.numel(); ++i) {
        float g = rng.normal(0.0F, 2.0F);
        switch (kPatterns[k]) {
          case Grad::kAllPlusZero:
            g = 0.0F;
            break;
          case Grad::kAllSignedZero:
            g = rng.randint(0, 1) == 0 ? 0.0F : -0.0F;
            break;
          case Grad::kWithNegZero:
            if (i % 3 == 0) g = -0.0F;
            break;
          case Grad::kWithNaN:
            if (s == 2 && i == 5) g = std::numeric_limits<float>::quiet_NaN();
            break;
          case Grad::kNoBuffer:
            break;
        }
        node.grad[i] = g;
      }
      ref[k].grad.assign(node.grad.data(), node.grad.data() + node.grad.numel());
    }
  }
};

::testing::AssertionResult same_bits(const Tensor& got, const std::vector<float>& want,
                                     const char* what) {
  if (got.numel() != want.size()) {
    return ::testing::AssertionFailure() << what << ": size " << got.numel();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: got " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr int kSteps = 6;
constexpr double kClip = 3.0;

void expect_same_norm(nn::Optimizer& opt, Params& ps) {
  const double got = opt.clip_grad_norm(kClip);
  const double want = ref_clip_grad_norm(ps.ref, kClip);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << "norm: got " << got << ", want " << want;
}

TEST(optim_bits, SgdMatchesScalarReference) {
  struct Case {
    const char* name;
    nn::Sgd::Options opts;
  };
  const Case cases[] = {
      {"plain", {.lr = 0.1F}},
      {"plain+decay", {.lr = 0.1F, .weight_decay = 5e-3F}},
      {"heavy-ball", {.lr = 0.1F, .momentum = 0.9F}},
      {"heavy-ball+decay", {.lr = 0.1F, .momentum = 0.9F, .weight_decay = 5e-3F}},
      {"nesterov", {.lr = 0.1F, .momentum = 0.9F, .nesterov = true}},
      {"nesterov+decay",
       {.lr = 0.1F, .momentum = 0.9F, .nesterov = true, .weight_decay = 5e-3F}},
      {"nesterov+decay+clip",
       {.lr = 0.1F, .momentum = 0.9F, .nesterov = true, .weight_decay = 5e-3F,
        .max_grad_norm = 2.0F}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Params ps;
    nn::Sgd opt(ps.vars, c.opts);
    float lr = c.opts.lr;
    dance::util::Rng rng(23);
    for (int s = 0; s < kSteps; ++s) {
      SCOPED_TRACE(::testing::Message() << "step " << s);
      ps.set_grads(s, rng);
      if (s % 2 == 1) expect_same_norm(opt, ps);
      if (s == 3) {
        lr *= 0.5F;
        opt.set_lr(lr);
      }
      opt.step();
      ref_sgd_step(ps.ref, c.opts, lr);
      for (std::size_t k = 0; k < ps.vars.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "param " << k);
        ASSERT_TRUE(same_bits(ps.vars[k].value(), ps.ref[k].value, "value"));
        ASSERT_TRUE(same_bits(opt.velocity(k), ps.ref[k].buf1, "velocity"));
        if (!ps.ref[k].grad.empty()) {
          ASSERT_TRUE(same_bits(ps.vars[k].node()->grad, ps.ref[k].grad, "grad"));
        }
      }
    }
  }
}

TEST(optim_bits, AdamMatchesScalarReference) {
  for (const float decay : {0.0F, 1e-3F}) {
    SCOPED_TRACE(::testing::Message() << "decay " << decay);
    Params ps;
    const nn::Adam::Options opts{.lr = 1e-2F, .weight_decay = decay};
    nn::Adam opt(ps.vars, opts);
    float lr = opts.lr;
    dance::util::Rng rng(29);
    for (int s = 0; s < kSteps; ++s) {
      SCOPED_TRACE(::testing::Message() << "step " << s);
      ps.set_grads(s, rng);
      if (s % 2 == 0) expect_same_norm(opt, ps);
      if (s == 3) {
        lr *= 0.5F;
        opt.set_lr(lr);
      }
      opt.step();
      ref_adam_step(ps.ref, opts, lr, s + 1);
      for (std::size_t k = 0; k < ps.vars.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "param " << k);
        ASSERT_TRUE(same_bits(ps.vars[k].value(), ps.ref[k].value, "value"));
        ASSERT_TRUE(same_bits(opt.first_moment(k), ps.ref[k].buf1, "m"));
        ASSERT_TRUE(same_bits(opt.second_moment(k), ps.ref[k].buf2, "v"));
      }
    }
  }
}

}  // namespace

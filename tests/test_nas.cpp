#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "nas/fixed_net.h"
#include "nas/supernet.h"
#include "nas/trainer.h"

namespace {

using namespace dance;
using arch::CandidateOp;
using tensor::Tensor;
using tensor::Variable;

nas::SuperNetConfig tiny_config() {
  nas::SuperNetConfig cfg;
  cfg.input_dim = 8;
  cfg.num_classes = 4;
  cfg.width = 16;
  cfg.num_blocks = 3;
  return cfg;
}

TEST(SuperNet, OpHiddenDimOrdering) {
  const nas::SuperNetConfig cfg = tiny_config();
  // Capacity must rise with expansion and kernel size, mirroring MBConv MACs.
  EXPECT_LT(nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv3x3E3),
            nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv3x3E6));
  EXPECT_LT(nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv3x3E6),
            nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv7x7E6));
  EXPECT_EQ(nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kZero), 0);
}

TEST(SuperNet, ForwardShape) {
  util::Rng rng(1);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({5, 8}, rng));
  const auto gates = net.softmax_gates();
  const Variable y = net.forward(x, gates);
  EXPECT_EQ(y.value().rows(), 5);
  EXPECT_EQ(y.value().cols(), 4);
}

TEST(SuperNet, OneHotGatesMatchFixedForward) {
  util::Rng rng(2);
  nas::SuperNet net(tiny_config(), rng);
  const arch::Architecture a = {CandidateOp::kMbConv5x5E6, CandidateOp::kZero,
                                CandidateOp::kMbConv3x3E3};
  Variable x(Tensor::randn({4, 8}, rng));
  const Variable via_gates = net.forward(x, net.onehot_gates(a));
  const Variable via_fixed = net.forward_fixed(x, a);
  for (std::size_t i = 0; i < via_gates.value().numel(); ++i) {
    EXPECT_NEAR(via_gates.value()[i], via_fixed.value()[i], 1e-5F);
  }
}

TEST(SuperNet, DeriveFollowsAlphaArgmax) {
  util::Rng rng(3);
  nas::SuperNet net(tiny_config(), rng);
  auto alphas = net.arch_parameters();
  alphas[0].value().at(0, static_cast<int>(CandidateOp::kZero)) = 5.0F;
  alphas[1].value().at(0, static_cast<int>(CandidateOp::kMbConv7x7E6)) = 5.0F;
  const arch::Architecture a = net.derive();
  EXPECT_EQ(a[0], CandidateOp::kZero);
  EXPECT_EQ(a[1], CandidateOp::kMbConv7x7E6);
}

TEST(SuperNet, ArchProbsAreDistributions) {
  util::Rng rng(4);
  nas::SuperNet net(tiny_config(), rng);
  for (const auto& p : net.arch_probs()) {
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SuperNet, GatesEncodingWidth) {
  util::Rng rng(5);
  nas::SuperNet net(tiny_config(), rng);
  const auto gates = net.sample_gates(1.0F, true, rng);
  const Variable enc = nas::SuperNet::encode_gates(gates);
  EXPECT_EQ(enc.value().cols(), 3 * arch::kNumCandidateOps);
}

TEST(SuperNet, ArchGradientFlowsThroughGumbelGates) {
  util::Rng rng(6);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({4, 8}, rng));
  auto gates = net.sample_gates(1.0F, /*hard=*/true, rng);
  const Variable loss =
      tensor::ops::cross_entropy(net.forward(x, gates), {0, 1, 2, 3});
  for (auto& a : net.arch_parameters()) a.zero_grad();
  loss.backward();
  bool any = false;
  for (auto& a : net.arch_parameters()) {
    for (std::size_t i = 0; i < a.grad().numel(); ++i) {
      if (a.grad()[i] != 0.0F) any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST(SuperNet, TwoPathSampleIsValid) {
  util::Rng rng(11);
  nas::SuperNet net(tiny_config(), rng);
  const auto samples = net.sample_two_paths(rng);
  ASSERT_EQ(samples.size(), 3U);
  for (const auto& s : samples) {
    EXPECT_NE(s.op_a, s.op_b);  // two distinct paths
    EXPECT_GE(s.op_a, 0);
    EXPECT_LT(s.op_a, arch::kNumCandidateOps);
    // Gate is a 2-way distribution.
    EXPECT_NEAR(s.gate.value()[0] + s.gate.value()[1], 1.0F, 1e-5F);
  }
}

TEST(SuperNet, TwoPathForwardAndEncodingGradients) {
  util::Rng rng(12);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({4, 8}, rng));
  const auto samples = net.sample_two_paths(rng);
  const Variable logits = net.forward_two_path(x, samples);
  EXPECT_EQ(logits.value().cols(), 4);
  const Variable enc = nas::SuperNet::encode_two_path(samples);
  EXPECT_EQ(enc.value().cols(), 3 * arch::kNumCandidateOps);
  // Encoding rows are distributions over ops per block.
  for (int b = 0; b < 3; ++b) {
    float sum = 0.0F;
    for (int j = 0; j < arch::kNumCandidateOps; ++j) {
      sum += enc.value().at(0, b * arch::kNumCandidateOps + j);
    }
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
  // Gradients reach the architecture parameters through the encoding. The
  // weighting must differ across ops (a uniform weight has zero gradient
  // through the 2-way softmax since the gate entries sum to 1).
  for (auto& a : net.arch_parameters()) a.zero_grad();
  Tensor w({1, 3 * arch::kNumCandidateOps});
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = 0.1F * static_cast<float>(i);
  tensor::ops::sum_all(tensor::ops::mul(enc, Variable(w))).backward();
  bool any = false;
  for (auto& a : net.arch_parameters()) {
    for (std::size_t i = 0; i < a.grad().numel(); ++i) {
      if (a.grad()[i] != 0.0F) any = true;
    }
  }
  EXPECT_TRUE(any);
}

/// One architecture step's loss on a fresh Gumbel or two-path sample drawn
/// from `seed`.
Variable arch_step_loss(nas::SuperNet& net, bool two_path, std::uint64_t seed,
                        const Variable& x, const std::vector<int>& labels) {
  util::Rng rng(seed);
  const Variable logits =
      two_path ? net.forward_two_path(x, net.sample_two_paths(rng))
               : net.forward(x, net.sample_gates(1.0F, /*hard=*/true, rng));
  return tensor::ops::cross_entropy(logits, labels);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0);
}

/// For each of `net`'s weight parameters, in weight_parameters() order:
/// whether its layer runs in the forward of arch_step_loss(seed). The
/// hard-Gumbel forward runs every candidate op; the two-path forward runs
/// the two sampled ops of each block.
std::vector<bool> layers_run(nas::SuperNet& net, const nas::SuperNetConfig& cfg,
                             bool two_path, std::uint64_t seed) {
  std::vector<nas::SuperNet::TwoPathSample> samples;
  if (two_path) {
    util::Rng rng(seed);
    samples = net.sample_two_paths(rng);
  }
  std::vector<bool> ran = {true, true};  // stem weight and bias
  for (int b = 0; b < cfg.num_blocks; ++b) {
    for (int op = 0; op < arch::kNumCandidateOps; ++op) {
      if (arch::is_zero(arch::kAllCandidateOps[static_cast<std::size_t>(op)])) {
        continue;
      }
      const auto ub = static_cast<std::size_t>(b);
      const bool runs =
          !two_path || op == samples[ub].op_a || op == samples[ub].op_b;
      ran.insert(ran.end(), 4, runs);  // fc1 and fc2, weight and bias each
    }
  }
  ran.insert(ran.end(), 2, true);  // classifier weight and bias
  return ran;
}

TEST(SuperNet, FrozenWeightsArchStepMatchesUnfrozen) {
  // The default supernet, so the step runs the real layer widths.
  const nas::SuperNetConfig cfg;
  for (const bool two_path : {false, true}) {
    SCOPED_TRACE(two_path ? "two-path" : "gumbel");
    util::Rng init_a(21);
    util::Rng init_b(21);
    nas::SuperNet unfrozen(cfg, init_a);
    nas::SuperNet frozen(cfg, init_b);
    util::Rng data_rng(22);
    const Variable x(Tensor::randn({8, cfg.input_dim}, data_rng));
    const std::vector<int> labels = {0, 1, 2, 3, 4, 5, 6, 7};

    // Every other weight starts with a sentinel gradient, the rest with none.
    constexpr float kSentinel = 0.5F;
    auto wu = unfrozen.weight_parameters();
    auto wf = frozen.weight_parameters();
    ASSERT_EQ(wu.size(), wf.size());
    for (std::size_t i = 0; i < wf.size(); i += 2) {
      for (auto* w : {&wu[i], &wf[i]}) {
        w->node()->ensure_grad();
        w->node()->grad.fill(kSentinel);
      }
    }

    // The step as it was: weight gradients zeroed and computed.
    for (auto& w : wu) w.zero_grad();
    const Variable loss_u = arch_step_loss(unfrozen, two_path, 23, x, labels);
    loss_u.backward();

    frozen.set_weights_frozen(true);
    const Variable loss_f = arch_step_loss(frozen, two_path, 23, x, labels);
    loss_f.backward();
    frozen.set_weights_frozen(false);

    EXPECT_TRUE(same_bits(loss_u.value(), loss_f.value()));
    const auto au = unfrozen.arch_parameters();
    const auto af = frozen.arch_parameters();
    for (std::size_t b = 0; b < au.size(); ++b) {
      EXPECT_TRUE(same_bits(au[b].grad(), af[b].grad())) << "alpha " << b;
    }
    // The next weight step's optimizer updates exactly the weights with a
    // buffer, so the searched values depend on which weights have one. The
    // unfrozen backward no longer allocates one for a zero-gated op, so the
    // frozen step is held to what the values need: every layer its forward
    // ran has a zeroed buffer, and a layer it did not run has none.
    const std::vector<bool> ran = layers_run(frozen, cfg, two_path, 23);
    ASSERT_EQ(ran.size(), wf.size());
    int without_buffer = 0;
    for (std::size_t i = 0; i < wf.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "weight " << i);
      EXPECT_TRUE(wf[i].requires_grad());
      const Tensor& g = wf[i].grad();
      if (i % 2 == 0) {
        // Untouched.
        EXPECT_TRUE(same_bits(g, Tensor::full(wf[i].value().shape(), kSentinel)));
        continue;
      }
      if (ran[i]) {
        EXPECT_TRUE(same_bits(g, Tensor::zeros(wf[i].value().shape())));
      } else {
        EXPECT_EQ(g.numel(), 0U);
        ++without_buffer;
      }
    }
    // Two paths per block leave the other ops' weights without a buffer.
    if (two_path) {
      EXPECT_GT(without_buffer, 0);
    }
  }
}

TEST(SuperNet, RejectsWrongGateCount) {
  util::Rng rng(7);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({2, 8}, rng));
  EXPECT_THROW(net.forward(x, {}), std::invalid_argument);
}

TEST(FixedNet, ZeroBlocksAreIdentity) {
  util::Rng rng(8);
  const nas::SuperNetConfig cfg = tiny_config();
  const arch::Architecture all_zero(3, CandidateOp::kZero);
  nas::FixedNet net(cfg, all_zero, rng);
  // With all-Zero blocks the net is stem + classifier only.
  // parameters: stem (8*16+16) + classifier (16*4+4)
  std::size_t count = 0;
  for (auto& p : net.parameters()) count += p.value().numel();
  EXPECT_EQ(count, static_cast<std::size_t>(8 * 16 + 16 + 16 * 4 + 4));
}

TEST(FixedNet, TrainingLearnsSeparableTask) {
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 8;
  dcfg.num_classes = 4;
  dcfg.clusters_per_class = 1;
  dcfg.train_samples = 512;
  dcfg.val_samples = 128;
  dcfg.noise = 0.3F;
  const data::SyntheticTask task = make_synthetic_task(dcfg);

  util::Rng rng(9);
  nas::SuperNetConfig cfg = tiny_config();
  const arch::Architecture a(3, CandidateOp::kMbConv5x5E6);
  nas::FixedNet net(cfg, a, rng);
  nas::FixedTrainOptions opts;
  opts.epochs = 20;
  opts.batch_size = 64;
  const auto result = nas::train_fixed_net(net, task, opts);
  EXPECT_GT(result.val_accuracy_pct, 85.0);
}

TEST(FixedNet, CapacityOrderingShowsOnHardTask) {
  // A higher-capacity architecture should fit a hard task at least as well
  // as the all-Zero one (which is just a linear-ish stem+classifier).
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 8;
  dcfg.num_classes = 4;
  dcfg.clusters_per_class = 4;
  dcfg.train_samples = 768;
  dcfg.val_samples = 256;
  dcfg.noise = 0.5F;
  dcfg.warp = 1.2F;
  const data::SyntheticTask task = make_synthetic_task(dcfg);

  util::Rng rng(10);
  nas::SuperNetConfig cfg = tiny_config();
  nas::FixedTrainOptions opts;
  opts.epochs = 20;
  opts.batch_size = 64;

  nas::FixedNet zero_net(cfg, arch::Architecture(3, CandidateOp::kZero), rng);
  nas::FixedNet big_net(cfg, arch::Architecture(3, CandidateOp::kMbConv7x7E6), rng);
  const double zero_acc = nas::train_fixed_net(zero_net, task, opts).val_accuracy_pct;
  const double big_acc = nas::train_fixed_net(big_net, task, opts).val_accuracy_pct;
  EXPECT_GE(big_acc + 3.0, zero_acc);  // big should not be meaningfully worse
}

TEST(Trainer, AccuracyPctBounds) {
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 4;
  dcfg.num_classes = 3;
  dcfg.train_samples = 30;
  dcfg.val_samples = 30;
  const data::SyntheticTask task = make_synthetic_task(dcfg);
  // A constant-forward "model" must land at chance-ish accuracy in [0, 100].
  const auto fwd = [&](const Variable& x) {
    return Variable(Tensor::zeros({x.value().rows(), 3}));
  };
  const double acc = nas::accuracy_pct(fwd, task.val, 16);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 100.0);
}

}  // namespace

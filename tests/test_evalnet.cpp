#include <gtest/gtest.h>

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "evalnet/trainer.h"

namespace {

using namespace dance;

/// Shared small fixture: tiny HW space so ground truth generation is fast.
class EvalNetTest : public ::testing::Test {
 protected:
  EvalNetTest()
      : arch_space_(arch::cifar10_backbone()),
        hw_space_({.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32,
                   .rf_step = 8}),
        table_(arch_space_, hw_space_, model_) {}

  arch::ArchSpace arch_space_;
  hwgen::HwSearchSpace hw_space_;
  accel::CostModel model_;
  arch::CostTable table_;
};

TEST_F(EvalNetTest, DatasetGenerationShapesAndConsistency) {
  util::Rng rng(3);
  const auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                      20, rng);
  EXPECT_EQ(ds.samples.size(), 20U);
  EXPECT_EQ(ds.arch_encoding_width, arch_space_.encoding_width());
  EXPECT_EQ(ds.hw_encoding_width, hw_space_.encoding_width());
  for (const auto& s : ds.samples) {
    EXPECT_EQ(static_cast<int>(s.arch_enc.size()), ds.arch_encoding_width);
    EXPECT_EQ(static_cast<int>(s.hw_enc.size()), ds.hw_encoding_width);
    // The stored labels must re-encode to the stored one-hot.
    const accel::AcceleratorConfig c{
        hw_space_.pe_value(s.hw_labels[0]), hw_space_.pe_value(s.hw_labels[1]),
        hw_space_.rf_value(s.hw_labels[2]), hw_space_.dataflow_value(s.hw_labels[3])};
    EXPECT_EQ(hw_space_.encode(c), s.hw_enc);
    // The stored metrics must be optimal: no config may beat them on EDAP.
    const arch::Architecture a = arch_space_.decode(s.arch_enc);
    const auto best = table_.optimal(a, accel::edap_cost());
    EXPECT_NEAR(best.metrics.latency_ms, s.metrics[0], 1e-12);
  }
}

TEST_F(EvalNetTest, SplitPreservesCountsAndWidths) {
  util::Rng rng(4);
  const auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                      10, rng);
  const auto [train, val] = evalnet::split_dataset(ds, 0.7);
  EXPECT_EQ(train.samples.size(), 7U);
  EXPECT_EQ(val.samples.size(), 3U);
  EXPECT_EQ(train.arch_encoding_width, ds.arch_encoding_width);
  EXPECT_THROW(evalnet::split_dataset(ds, 1.5), std::invalid_argument);
}

TEST_F(EvalNetTest, HwGenNetShapesAndPredict) {
  util::Rng rng(5);
  evalnet::HwGenNet net(arch_space_.encoding_width(), hw_space_, rng);
  const arch::Architecture a = arch_space_.random(rng);
  tensor::Variable enc(tensor::Tensor::from({1, arch_space_.encoding_width()},
                                            arch_space_.encode(a)));
  const auto lg = net.logits(enc);
  EXPECT_EQ(lg.value().cols(), hw_space_.encoding_width());
  const auto ranges = net.head_ranges();
  EXPECT_EQ(ranges[3].second, hw_space_.encoding_width());
  // predict() must return a config inside the space.
  const auto preds = net.predict(enc);
  ASSERT_EQ(preds.size(), 1U);
  EXPECT_NO_THROW((void)hw_space_.index_of(preds[0]));
}

TEST_F(EvalNetTest, ForwardEncodedHardIsValidConfigEncoding) {
  util::Rng rng(6);
  evalnet::HwGenNet net(arch_space_.encoding_width(), hw_space_, rng);
  tensor::Variable enc(
      tensor::Tensor::from({2, arch_space_.encoding_width()},
                           std::vector<float>(
                               static_cast<std::size_t>(2 * arch_space_.encoding_width()), 0.1F)));
  const auto out = net.forward_encoded(enc, 1.0F, /*hard=*/true, rng);
  EXPECT_EQ(out.value().cols(), hw_space_.encoding_width());
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0F;
    for (int c = 0; c < out.value().cols(); ++c) sum += out.value().at(r, c);
    EXPECT_FLOAT_EQ(sum, 4.0F);  // one 1 per head
  }
}

TEST_F(EvalNetTest, CostNetFeatureForwardingValidation) {
  util::Rng rng(7);
  evalnet::CostNet::Options ff;
  ff.feature_forwarding = true;
  ff.hidden_dim = 32;
  evalnet::CostNet net(arch_space_.encoding_width(), hw_space_.encoding_width(),
                       rng, ff);
  tensor::Variable enc(tensor::Tensor::zeros({2, arch_space_.encoding_width()}));
  EXPECT_THROW(net.forward(enc, tensor::Variable{}), std::invalid_argument);
  tensor::Variable hw(tensor::Tensor::zeros({2, hw_space_.encoding_width()}));
  const auto out = net.forward(enc, hw);
  EXPECT_EQ(out.value().cols(), 3);
}

TEST_F(EvalNetTest, CostNetOutputScaleApplied) {
  util::Rng rng(8);
  evalnet::CostNet::Options opts;
  opts.feature_forwarding = false;
  opts.hidden_dim = 16;
  evalnet::CostNet net(arch_space_.encoding_width(), hw_space_.encoding_width(),
                       rng, opts);
  net.set_training(false);
  tensor::Variable enc(tensor::Tensor::full({2, arch_space_.encoding_width()}, 0.3F));
  const auto base = net.forward(enc, tensor::Variable{});
  net.set_output_scale({2.0, 3.0, 4.0});
  const auto scaled = net.forward(enc, tensor::Variable{});
  EXPECT_NEAR(scaled.value().at(0, 0), 2.0F * base.value().at(0, 0), 1e-5F);
  EXPECT_NEAR(scaled.value().at(1, 2), 4.0F * base.value().at(1, 2), 1e-5F);
  EXPECT_THROW(net.set_output_scale({0.0, 1.0, 1.0}), std::invalid_argument);
}

TEST_F(EvalNetTest, EvaluatorFrozenStopsParameterGradsButNotInputGrads) {
  util::Rng rng(9);
  evalnet::Evaluator::Options opts;
  opts.hwgen.hidden_dim = 32;
  opts.cost.hidden_dim = 32;
  evalnet::Evaluator ev(arch_space_.encoding_width(), hw_space_, rng, opts);
  ev.set_frozen(true);
  ev.set_training(false);

  tensor::Variable enc(
      tensor::Tensor::full({1, arch_space_.encoding_width()}, 0.14F), true);
  const auto out = ev.forward(enc, rng);
  tensor::ops::sum_all(out.metrics).backward();

  // Input got a gradient (this is the path DANCE uses)...
  bool any_input_grad = false;
  for (std::size_t i = 0; i < enc.grad().numel(); ++i) {
    if (enc.grad()[i] != 0.0F) any_input_grad = true;
  }
  EXPECT_TRUE(any_input_grad);
  // ...while frozen parameters accumulate none.
  for (auto& p : ev.cost_net().parameters()) {
    EXPECT_EQ(p.grad().numel(), 0U);
  }
}

TEST_F(EvalNetTest, TrainingImprovesHwGenAccuracy) {
  util::Rng rng(10);
  auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(), 300,
                                                rng);
  auto [train, val] = evalnet::split_dataset(ds, 0.8);
  evalnet::HwGenNet::Options small;
  small.hidden_dim = 64;
  evalnet::HwGenNet net(arch_space_.encoding_width(), hw_space_, rng, small);
  const auto before = evalnet::evaluate_hwgen_net(net, val);
  evalnet::TrainOptions opts;
  opts.epochs = 15;
  opts.batch_size = 64;
  opts.lr = 0.05F;
  const auto after = evalnet::train_hwgen_net(net, train, val, opts);
  double gain = 0.0;
  for (int h = 0; h < 4; ++h) {
    gain += after.head_accuracy_pct[static_cast<std::size_t>(h)] -
            before.head_accuracy_pct[static_cast<std::size_t>(h)];
  }
  EXPECT_GT(gain, 0.0);
  // The concentrated optimum makes high accuracy reachable even when tiny.
  EXPECT_GT(after.head_accuracy_pct[3], 60.0);  // dataflow head
}

TEST_F(EvalNetTest, TrainingReducesCostError) {
  util::Rng rng(11);
  auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(), 300,
                                                rng);
  auto [train, val] = evalnet::split_dataset(ds, 0.8);
  evalnet::CostNet::Options small;
  small.feature_forwarding = false;
  small.hidden_dim = 64;
  evalnet::CostNet net(arch_space_.encoding_width(), hw_space_.encoding_width(),
                       rng, small);
  evalnet::TrainOptions opts;
  opts.epochs = 25;
  opts.batch_size = 64;
  opts.lr = 3e-3F;
  const auto after = evalnet::train_cost_net(net, train, val, opts);
  // 240 training samples is deliberately tiny; the full-scale runs live in
  // bench_table1_evaluator. Here we only require clearly-better-than-noise.
  for (int m = 0; m < 3; ++m) {
    EXPECT_GT(after.metric_accuracy_pct[static_cast<std::size_t>(m)], 40.0);
  }
}

TEST_F(EvalNetTest, EmptyDatasetThrows) {
  util::Rng rng(12);
  evalnet::HwGenNet net(arch_space_.encoding_width(), hw_space_, rng);
  evalnet::EvaluatorDataset empty;
  empty.arch_encoding_width = arch_space_.encoding_width();
  empty.hw_encoding_width = hw_space_.encoding_width();
  EXPECT_THROW((void)evalnet::evaluate_hwgen_net(net, empty),
               std::invalid_argument);
}

}  // namespace

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>

#include "arch/cost_table.h"
#include "evalnet/trainer.h"
#include "search/baselines.h"
#include "search/cost_term.h"
#include "search/dance.h"
#include "search/rl.h"
#include "search/warmup.h"

namespace {

using namespace dance;
using search::CostKind;

TEST(Warmup, HoldsThenRamps) {
  const search::LambdaWarmup w(0.0F, 2.0F, 5, 4);
  EXPECT_FLOAT_EQ(w.value(0), 0.0F);
  EXPECT_FLOAT_EQ(w.value(4), 0.0F);
  EXPECT_FLOAT_EQ(w.value(5), 0.0F);   // ramp starts
  EXPECT_FLOAT_EQ(w.value(7), 1.0F);   // halfway up
  EXPECT_FLOAT_EQ(w.value(9), 2.0F);
  EXPECT_FLOAT_EQ(w.value(100), 2.0F);
}

TEST(Warmup, NonZeroInitial) {
  const search::LambdaWarmup w(0.5F, 1.5F, 2, 2);
  EXPECT_FLOAT_EQ(w.value(1), 0.5F);
  EXPECT_FLOAT_EQ(w.value(3), 1.0F);
}

TEST(CostTerm, LinearMatchesScalarFn) {
  tensor::Variable metrics(
      tensor::Tensor::from({1, 3}, {2.0F, 3.0F, 4.0F}), true);
  accel::LinearCostWeights w{1.0, 2.0, 0.5};
  const tensor::Variable cost =
      search::hw_cost_variable(metrics, CostKind::kLinear, w);
  EXPECT_NEAR(cost.value()[0], 1.0 * 2.0 + 2.0 * 3.0 + 0.5 * 4.0, 1e-5);
  const accel::HwCostFn fn = search::make_cost_fn(CostKind::kLinear, w);
  EXPECT_NEAR(fn(accel::CostMetrics{2.0, 3.0, 4.0}), cost.value()[0], 1e-5);
}

TEST(CostTerm, EdapMatchesScalarFnAndBackprops) {
  tensor::Variable metrics(
      tensor::Tensor::from({1, 3}, {2.0F, 3.0F, 4.0F}), true);
  const tensor::Variable cost =
      search::hw_cost_variable(metrics, CostKind::kEdap);
  EXPECT_NEAR(cost.value()[0], 24.0, 1e-4);
  tensor::ops::sum_all(cost).backward();
  // d(L*E*A)/dL = E*A etc.
  EXPECT_NEAR(metrics.grad()[0], 12.0F, 1e-4F);
  EXPECT_NEAR(metrics.grad()[1], 8.0F, 1e-4F);
  EXPECT_NEAR(metrics.grad()[2], 6.0F, 1e-4F);
}

TEST(CostTerm, Names) {
  EXPECT_STREQ(search::to_string(CostKind::kLinear), "linear");
  EXPECT_STREQ(search::to_string(CostKind::kEdap), "EDAP");
}

/// Shared fixture for the (slow) integration smokes: tiny task, tiny
/// hardware space, tiny supernet.
class SearchIntegration : public ::testing::Test {
 protected:
  SearchIntegration()
      : arch_space_(arch::cifar10_backbone()),
        hw_space_({.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32,
                   .rf_step = 8}),
        table_(arch_space_, hw_space_, model_) {
    data::SyntheticTaskConfig dcfg;
    dcfg.input_dim = 12;
    dcfg.num_classes = 6;
    dcfg.train_samples = 512;
    dcfg.val_samples = 192;
    task_ = data::make_synthetic_task(dcfg);

    net_config_.input_dim = 12;
    net_config_.num_classes = 6;
    net_config_.width = 24;
    net_config_.num_blocks = 9;  // must match the backbone's searchable count
  }

  /// A small evaluator, quickly pre-trained so it is not random noise.
  std::unique_ptr<evalnet::Evaluator> trained_evaluator() {
    util::Rng rng(21);
    evalnet::Evaluator::Options eopts;
    eopts.hwgen.hidden_dim = 32;
    eopts.cost.hidden_dim = 32;
    auto evaluator = std::make_unique<evalnet::Evaluator>(
        arch_space_.encoding_width(), hw_space_, rng, eopts);
    auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                  200, rng);
    auto [train, val] = evalnet::split_dataset(ds, 0.8);
    evalnet::TrainOptions topts;
    topts.epochs = 8;
    topts.batch_size = 64;
    evalnet::train_hwgen_net(evaluator->hwgen_net(), train, val, topts);
    topts.lr = 3e-3F;
    evalnet::train_cost_net(evaluator->cost_net(), train, val, topts);
    return evaluator;
  }

  arch::ArchSpace arch_space_;
  hwgen::HwSearchSpace hw_space_;
  accel::CostModel model_;
  arch::CostTable table_;
  data::SyntheticTask task_;
  nas::SuperNetConfig net_config_;
};

TEST_F(SearchIntegration, BaselineProducesValidOutcome) {
  search::BaselineOptions opts;
  opts.search_epochs = 3;
  opts.batch_size = 128;
  opts.retrain.epochs = 6;
  const search::SearchOutcome out =
      search::run_baseline(task_, table_, net_config_, opts);
  EXPECT_EQ(out.architecture.size(), 9U);
  EXPECT_EQ(out.trained_candidates, 1);
  EXPECT_GT(out.metrics.latency_ms, 0.0);
  EXPECT_GT(out.val_accuracy_pct, 100.0 / 6.0);  // better than chance
  // Reported hardware must be the exact optimum for the reported arch.
  const auto exact = table_.optimal(out.architecture, accel::edap_cost());
  EXPECT_EQ(exact.config, out.hardware);
}

TEST_F(SearchIntegration, FlopsPenaltyShrinksNetwork) {
  search::BaselineOptions opts;
  opts.search_epochs = 4;
  opts.retrain.epochs = 2;
  opts.seed = 3;
  const auto plain = search::run_baseline(task_, table_, net_config_, opts);
  opts.flops_weight = 3.0F;  // strong penalty
  const auto penalized = search::run_baseline(task_, table_, net_config_, opts);
  EXPECT_LE(arch_space_.macs(penalized.architecture),
            arch_space_.macs(plain.architecture));
}

TEST_F(SearchIntegration, DanceRunsAndReportsExactHardware) {
  const auto evaluator = trained_evaluator();
  search::DanceOptions opts;
  opts.search_epochs = 4;
  opts.warmup_epochs = 1;
  opts.lambda2 = 0.5F;
  opts.retrain.epochs = 6;
  search::DanceSearch dance(task_, table_, *evaluator, net_config_, opts);
  const search::SearchOutcome out = dance.run();
  EXPECT_EQ(out.architecture.size(), 9U);
  EXPECT_EQ(out.trained_candidates, 1);
  const auto exact = table_.optimal(out.architecture, accel::edap_cost());
  EXPECT_EQ(exact.config, out.hardware);
  EXPECT_NEAR(exact.metrics.edap(), out.metrics.edap(), 1e-9);
  EXPECT_FALSE(dance.final_probs().empty());
}

/// Every bit of a search's result as text: the derived architecture, the
/// picked hardware, the exact metrics and the retrained accuracy as hex
/// floats, and an FNV-1a hash over the bits of final_probs().
std::string outcome_bits(const search::SearchOutcome& out,
                         const std::vector<std::vector<double>>& probs) {
  std::string s = "arch";
  for (const arch::CandidateOp op : out.architecture) {
    s += ' ';
    s += std::to_string(static_cast<int>(op));
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\nhw %s\nmetrics %a %a %a\naccuracy %a",
                out.hardware.to_string().c_str(), out.metrics.latency_ms,
                out.metrics.energy_mj, out.metrics.area_mm2,
                out.val_accuracy_pct);
  s += buf;
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& row : probs) {
    for (const double p : row) {
      hash = (hash ^ std::bit_cast<std::uint64_t>(p)) * 1099511628211ULL;
    }
  }
  std::snprintf(buf, sizeof(buf), "\nprobs %016llx",
                static_cast<unsigned long long>(hash));
  return s + buf;
}

// Golden bits of a default-option DanceSearch under both arch updates.
// Deleting an option or a loss term that is off by default must not move
// them. A change that moves them on purpose (a new gradient path, a new RNG
// draw) re-records both strings and says so.
TEST_F(SearchIntegration, DanceOutcomeMatchesRecordedBits) {
  const auto evaluator = trained_evaluator();
  const struct {
    search::ArchUpdate update;
    const char* expected;
  } cases[] = {
      {search::ArchUpdate::kGumbelSt,
       "arch 5 1 0 6 1 4 6 6 6\n"
       "hw Accel(PEx=8 PEy=8 RF=8 DF=OS)\n"
       "metrics 0x1.28effe2a3cea7p-2 0x1.6e857eae808c5p-2 "
       "0x1.d5e9e1b089a02p+1\n"
       "accuracy 0x1.0255555555555p+5\n"
       "probs d814f6b54c444f4a"},
      {search::ArchUpdate::kBinarizedTwoPath,
       "arch 6 5 2 0 4 1 3 2 6\n"
       "hw Accel(PEx=8 PEy=8 RF=8 DF=OS)\n"
       "metrics 0x1.6ab3cc4ac6cdbp-2 0x1.5d9f87c219263p-2 "
       "0x1.d5e9e1b089a02p+1\n"
       "accuracy 0x1.c2p+4\n"
       "probs db73d5c753feb088"},
  };
  for (const auto& c : cases) {
    search::DanceOptions opts;
    opts.search_epochs = 3;
    opts.warmup_epochs = 1;
    opts.lambda2 = 2.5F;
    opts.retrain.epochs = 3;
    opts.arch_update = c.update;
    search::DanceSearch dance(task_, table_, *evaluator, net_config_, opts);
    const search::SearchOutcome out = dance.run();
    EXPECT_EQ(outcome_bits(out, dance.final_probs()), c.expected);
  }
}

TEST_F(SearchIntegration, RlCountsTrainedCandidates) {
  search::RlOptions opts;
  opts.num_candidates = 6;
  opts.proxy_epochs = 1;
  opts.retrain.epochs = 2;
  const search::SearchOutcome out =
      search::run_rl_coexploration(task_, table_, net_config_, opts);
  EXPECT_EQ(out.trained_candidates, 6);
  EXPECT_EQ(out.architecture.size(), 9U);
  // The RL candidate's hardware is part of the sampled joint design.
  EXPECT_NO_THROW((void)hw_space_.index_of(out.hardware));
}

}  // namespace

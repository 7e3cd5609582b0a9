// Distributional and determinism properties of the evaluator ground-truth
// corpus generation.
#include <gtest/gtest.h>

#include <set>

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "evalnet/dataset.h"

namespace {

using namespace dance;

class EvalDatasetTest : public ::testing::Test {
 protected:
  EvalDatasetTest()
      : arch_space_(arch::cifar10_backbone()),
        hw_space_({.pe_min = 8, .pe_max = 14, .rf_min = 8, .rf_max = 48,
                   .rf_step = 8}),
        table_(arch_space_, hw_space_, model_) {}

  arch::ArchSpace arch_space_;
  hwgen::HwSearchSpace hw_space_;
  accel::CostModel model_;
  arch::CostTable table_;
};

TEST_F(EvalDatasetTest, DeterministicGivenSeed) {
  util::Rng r1(99);
  util::Rng r2(99);
  const auto a = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                     30, r1);
  const auto b = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                     30, r2);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].arch_enc, b.samples[i].arch_enc);
    EXPECT_EQ(a.samples[i].hw_labels, b.samples[i].hw_labels);
    EXPECT_DOUBLE_EQ(a.samples[i].metrics[0], b.samples[i].metrics[0]);
  }
}

TEST_F(EvalDatasetTest, ArchitecturesAreDiverse) {
  util::Rng rng(7);
  const auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                      50, rng);
  std::set<std::vector<float>> distinct;
  for (const auto& s : ds.samples) distinct.insert(s.arch_enc);
  EXPECT_GT(distinct.size(), 45U);  // collisions vanishingly unlikely
}

TEST_F(EvalDatasetTest, MetricsArePositiveAndOrdered) {
  util::Rng rng(8);
  const auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                      40, rng);
  for (const auto& s : ds.samples) {
    EXPECT_GT(s.metrics[0], 0.0);  // latency
    EXPECT_GT(s.metrics[1], 0.0);  // energy
    EXPECT_GT(s.metrics[2], 0.0);  // area
  }
}

TEST_F(EvalDatasetTest, DifferentCostFnsYieldDifferentOptima) {
  // The EDAP-optimal and latency-optimal labels must differ somewhere;
  // otherwise the hardware generation problem would be degenerate.
  util::Rng r1(9);
  util::Rng r2(9);
  const auto edap = evalnet::generate_evaluator_dataset(
      table_, accel::edap_cost(), 40, r1);
  const auto lat = evalnet::generate_evaluator_dataset(
      table_, accel::linear_cost({1.0, 0.0, 0.0}), 40, r2);
  int diff = 0;
  for (std::size_t i = 0; i < edap.samples.size(); ++i) {
    if (edap.samples[i].hw_labels != lat.samples[i].hw_labels) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST_F(EvalDatasetTest, LabelsWithinHeadRanges) {
  util::Rng rng(10);
  const auto ds = evalnet::generate_evaluator_dataset(table_, accel::edap_cost(),
                                                      25, rng);
  for (const auto& s : ds.samples) {
    EXPECT_LT(s.hw_labels[0], hw_space_.num_pe_choices());
    EXPECT_LT(s.hw_labels[1], hw_space_.num_pe_choices());
    EXPECT_LT(s.hw_labels[2], hw_space_.num_rf_choices());
    EXPECT_LT(s.hw_labels[3], 3);
    for (int h = 0; h < 4; ++h) EXPECT_GE(s.hw_labels[static_cast<std::size_t>(h)], 0);
  }
}

}  // namespace

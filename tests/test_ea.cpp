#include <gtest/gtest.h>

#include "arch/cost_table.h"
#include "search/ea.h"

namespace {

using namespace dance;

TEST(EaCoExploration, RunsAndCountsCandidates) {
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 12;
  dcfg.num_classes = 6;
  dcfg.train_samples = 384;
  dcfg.val_samples = 128;
  const data::SyntheticTask task = data::make_synthetic_task(dcfg);

  arch::ArchSpace arch_space(arch::cifar10_backbone());
  hwgen::HwSearchSpace hw_space(
      {.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32, .rf_step = 8});
  accel::CostModel model;
  arch::CostTable table(arch_space, hw_space, model);

  nas::SuperNetConfig net_config;
  net_config.input_dim = 12;
  net_config.num_classes = 6;
  net_config.width = 24;
  net_config.num_blocks = 9;

  search::EaOptions opts;
  opts.population = 4;
  opts.generations = 2;
  opts.proxy_epochs = 1;
  opts.retrain.epochs = 2;
  const search::SearchOutcome out =
      search::run_ea_coexploration(task, table, net_config, opts);
  // population + generations * population proxy trainings
  EXPECT_EQ(out.trained_candidates, 4 + 2 * 4);
  EXPECT_EQ(out.architecture.size(), 9U);
  EXPECT_NO_THROW((void)hw_space.index_of(out.hardware));
  EXPECT_GT(out.metrics.latency_ms, 0.0);
  // Reported metrics must match the cost table for the reported design.
  const auto check =
      table.metrics(hw_space.index_of(out.hardware), out.architecture);
  EXPECT_NEAR(check.edap(), out.metrics.edap(), 1e-12);
}

TEST(EaCoExploration, BadOptionsThrow) {
  data::SyntheticTaskConfig dcfg;
  dcfg.train_samples = 32;
  dcfg.val_samples = 16;
  const data::SyntheticTask task = data::make_synthetic_task(dcfg);
  arch::ArchSpace arch_space(arch::cifar10_backbone());
  hwgen::HwSearchSpace hw_space(
      {.pe_min = 8, .pe_max = 9, .rf_min = 8, .rf_max = 8, .rf_step = 4});
  accel::CostModel model;
  arch::CostTable table(arch_space, hw_space, model);
  nas::SuperNetConfig cfg;
  cfg.num_blocks = 9;
  search::EaOptions opts;
  opts.population = 1;  // too small
  EXPECT_THROW(search::run_ea_coexploration(task, table, cfg, opts),
               std::invalid_argument);
}

}  // namespace

// Reproduction of Figure 5: the Error-EDAP plot.
//
// Sweeps the hardware-cost weight (lambda2 for DANCE, the FLOPs-penalty
// weight for the baseline) and reports (validation error, EDAP) pairs for
// every searched design. Expected shape (paper): DANCE's points dominate the
// baseline's — at matched error DANCE has clearly lower EDAP, and pushing
// the hyper-parameter toward cost gives DANCE a much better frontier.
//
// Points are printed as a table and written to bench/data/fig5_error_edap.csv
// (override the directory with DANCE_BENCH_DATA_DIR) for external plotting.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "arch/cost_table.h"
#include "evalnet/trainer.h"
#include "search/baselines.h"
#include "search/dance.h"
#include "util/csv.h"
#include "util/table.h"

#include "bench_common.h"

namespace {

using namespace dance;
using search::CostKind;

void run_fig5() {
  std::printf("== Figure 5: Error-EDAP trade-off (lower-left is better) ==\n\n");

  data::SyntheticTaskConfig dcfg;
  dcfg.train_samples = dance::bench::scaled(3072);
  dcfg.val_samples = 1024;
  const data::SyntheticTask task = data::make_synthetic_task(dcfg);

  arch::ArchSpace arch_space(arch::cifar10_backbone());
  hwgen::HwSearchSpace hw_space;
  accel::CostModel model;
  arch::CostTable table(arch_space, hw_space, model);

  nas::SuperNetConfig net_config;
  net_config.input_dim = dcfg.input_dim;
  net_config.num_classes = dcfg.num_classes;
  net_config.width = 48;
  net_config.num_blocks = arch_space.num_searchable();

  const int search_epochs = dance::bench::scaled(12);
  const int retrain_epochs = dance::bench::scaled(25);

  util::Table t({"Series", "Hyperparam", "Error(%)", "EDAP"});
  const std::string csv_path = dance::bench::data_path("fig5_error_edap.csv");
  util::CsvWriter csv(csv_path, {"series", "hyperparam", "error_pct", "edap"});

  // --- Baseline series: FLOPs-penalty sweep (incl. 0 = no penalty). ---
  for (const float fw : {0.0F, 0.1F, 0.25F, 0.6F}) {
    search::BaselineOptions opts;
    opts.search_epochs = search_epochs;
    opts.retrain.epochs = retrain_epochs;
    opts.flops_weight = fw;
    opts.cost_kind = CostKind::kEdap;
    opts.seed = 17 + static_cast<std::uint64_t>(fw * 10);
    const auto out = search::run_baseline(task, table, net_config, opts);
    const double err = 100.0 - out.val_accuracy_pct;
    t.add_row({"Baseline", util::Table::fmt(fw, 1), util::Table::fmt(err, 2),
               util::Table::fmt(out.metrics.edap(), 3)});
    csv.add_row({"baseline", util::Table::fmt(fw, 2), util::Table::fmt(err, 3),
                 util::Table::fmt(out.metrics.edap(), 5)});
  }

  // --- DANCE series: lambda2 sweep with one shared evaluator. ---
  util::Rng rng(23);
  evalnet::Evaluator::Options eopts;
  eopts.cost.hidden_dim = 192;
  evalnet::Evaluator evaluator(arch_space.encoding_width(), hw_space, rng, eopts);
  {
    auto ds = evalnet::generate_evaluator_dataset(
        table, search::make_cost_fn(CostKind::kEdap),
        dance::bench::scaled(8000), rng);
    auto [train, val] = evalnet::split_dataset(ds, 0.85);
    evalnet::TrainOptions hw_opts;
    hw_opts.epochs = dance::bench::scaled(20);
    hw_opts.lr = 0.05F;
    evalnet::train_hwgen_net(evaluator.hwgen_net(), train, val, hw_opts);
    evalnet::TrainOptions cost_opts;
    cost_opts.epochs = dance::bench::scaled(25);
    cost_opts.lr = 4e-3F;
    evalnet::train_cost_net(evaluator.cost_net(), train, val, cost_opts);
  }
  for (const float l2 : {1.0F, 2.5F, 4.0F, 6.0F, 10.0F}) {
    search::DanceOptions opts;
    opts.search_epochs = search_epochs;
    opts.warmup_epochs = std::max(1, search_epochs / 4);
    opts.cost_kind = CostKind::kEdap;
    opts.lambda2 = l2;
    opts.retrain.epochs = retrain_epochs;
    opts.seed = 29 + static_cast<std::uint64_t>(l2);
    search::DanceSearch dance_search(task, table, evaluator, net_config, opts);
    const auto out = dance_search.run();
    const double err = 100.0 - out.val_accuracy_pct;
    t.add_row({"DANCE", util::Table::fmt(l2, 1), util::Table::fmt(err, 2),
               util::Table::fmt(out.metrics.edap(), 3)});
    csv.add_row({"dance", util::Table::fmt(l2, 2), util::Table::fmt(err, 3),
                 util::Table::fmt(out.metrics.edap(), 5)});
  }
  csv.flush();

  std::printf("%s\n", t.to_string().c_str());
  std::printf("data written to %s\n", csv_path.c_str());
  std::printf("paper shape: at matched error DANCE's EDAP is far lower; its "
              "frontier dominates the baseline's.\n\n");
}

/// Microbenchmark: one full post-search exact hardware generation (the
/// one-time cost DANCE pays after its gradient search).
void BM_PostSearchHwGeneration(benchmark::State& state) {
  arch::ArchSpace arch_space(arch::cifar10_backbone());
  hwgen::HwSearchSpace hw_space;
  accel::CostModel model;
  arch::CostTable table(arch_space, hw_space, model);
  util::Rng rng(2);
  const arch::Architecture a = arch_space.random(rng);
  const auto fn = accel::edap_cost();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.optimal(a, fn));
  }
}
BENCHMARK(BM_PostSearchHwGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_fig5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

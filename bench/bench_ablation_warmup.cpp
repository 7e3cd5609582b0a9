// Ablation of the hyper-parameter warm-up (§3.4).
//
// The paper motivates warm-up by the collapse failure mode: "selecting most
// of the operations to be zero quickly optimizes all of the latency, area,
// and the energy consumption. Once the architecture falls into such a
// solution it is difficult to find heavier architectures."
//
// This harness runs the same DANCE search with and without warm-up at an
// aggressive lambda2 and reports how many searchable slots collapsed to
// Zero, the retrained accuracy, and the hardware cost. Expected shape:
// without warm-up the architecture collapses (many Zero slots, poor
// accuracy); with warm-up the search keeps capacity where it matters.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "arch/cost_table.h"
#include "evalnet/trainer.h"
#include "search/dance.h"
#include "util/table.h"

#include "bench_common.h"

namespace {

using namespace dance;

int zero_slots(const arch::Architecture& a) {
  int n = 0;
  for (const auto op : a) n += arch::is_zero(op) ? 1 : 0;
  return n;
}

void run_ablation() {
  std::printf("== Ablation: lambda2 warm-up (§3.4) ==\n\n");

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

  // One shared evaluator.
  util::Rng rng(71);
  evalnet::Evaluator::Options eopts;
  eopts.cost.hidden_dim = 192;
  evalnet::Evaluator evaluator(arch_space.encoding_width(), hw_space, rng, eopts);
  {
    auto ds = evalnet::generate_evaluator_dataset(
        table, accel::edap_cost(),
        dance::bench::scaled(6000), rng);
    auto [train, val] = evalnet::split_dataset(ds, 0.85);
    evalnet::TrainOptions hw_opts;
    hw_opts.epochs = dance::bench::scaled(15);
    hw_opts.lr = 0.05F;
    evalnet::train_hwgen_net(evaluator.hwgen_net(), train, val, hw_opts);
    evalnet::TrainOptions cost_opts;
    cost_opts.epochs = dance::bench::scaled(20);
    cost_opts.lr = 4e-3F;
    evalnet::train_cost_net(evaluator.cost_net(), train, val, cost_opts);
  }

  const int search_epochs = dance::bench::scaled(12);
  util::Table t({"Schedule", "Zero slots (of 9)", "Acc.(%)", "EDAP"});
  for (const bool warmup : {false, true}) {
    search::DanceOptions opts;
    opts.search_epochs = search_epochs;
    opts.lambda2 = 5.0F;  // aggressive enough to invite collapse from step 0
    opts.warmup_epochs = warmup ? std::max(1, search_epochs / 2) : 0;
    opts.retrain.epochs = dance::bench::scaled(25);
    opts.seed = 73;
    search::DanceSearch dance(task, table, evaluator, net_config, opts);
    const search::SearchOutcome out = dance.run();
    t.add_row({warmup ? "with warm-up" : "no warm-up (lambda2 from step 0)",
               std::to_string(zero_slots(out.architecture)),
               util::Table::fmt(out.val_accuracy_pct, 1),
               util::Table::fmt(out.metrics.edap(), 3)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("paper shape: without warm-up the search collapses toward "
              "all-Zero before accuracy can form; warm-up avoids this.\n\n");
}

/// Microbenchmark: one warm-up schedule evaluation (trivially cheap; present
/// so the binary exercises google-benchmark like its siblings).
void BM_WarmupSchedule(benchmark::State& state) {
  const search::LambdaWarmup w(0.0F, 5.0F, 10, 4);
  int epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.value(epoch++ % 40));
  }
}
BENCHMARK(BM_WarmupSchedule);

}  // namespace

int main(int argc, char** argv) {
  run_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// Reproduction of Table 4: "Performance of DANCE on ImageNet".
//
// The ImageNet experiment uses the scaled-up backbone (224x224 input, wider
// channels) and a harder synthetic stand-in task (more classes, more
// clusters). Expected shape (paper): DANCE w/ FF trades ~2%p accuracy for
// ~20% latency, ~15% energy and ~33% EDAP reduction versus the hardware-
// oblivious baseline + post-hoc hardware generation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "arch/cost_table.h"
#include "evalnet/trainer.h"
#include "search/baselines.h"
#include "search/dance.h"
#include "search/design_points.h"
#include "util/table.h"

#include "bench_common.h"

namespace {

using namespace dance;

void run_table4() {
  std::printf("== Table 4: Performance of DANCE on ImageNet (synthetic "
              "stand-in task, scaled-up backbone) ==\n\n");

  // Harder task standing in for ImageNet: more classes, more structure.
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 24;
  dcfg.num_classes = 20;
  dcfg.clusters_per_class = 8;
  dcfg.noise = 0.9F;
  dcfg.warp = 1.6F;
  dcfg.train_samples = dance::bench::scaled(4096);
  dcfg.val_samples = 1024;
  const data::SyntheticTask task = data::make_synthetic_task(dcfg);

  arch::ArchSpace arch_space(arch::imagenet_backbone());
  hwgen::HwSearchSpace hw_space;
  accel::CostModel model;
  arch::CostTable table(arch_space, hw_space, model);

  nas::SuperNetConfig net_config;
  net_config.input_dim = dcfg.input_dim;
  net_config.num_classes = dcfg.num_classes;
  net_config.width = 64;
  net_config.num_blocks = arch_space.num_searchable();

  const int search_epochs = dance::bench::scaled(12);
  const int retrain_epochs = dance::bench::scaled(25);
  const accel::HwCost cost = accel::edap_cost();

  util::Table t({"Method", "Acc.(%)", "Latency(ms)", "Energy(mJ)", "EDAP"});

  // Baseline + post-hoc hardware generation.
  double baseline_acc = 0.0;
  {
    search::BaselineOptions opts;
    opts.search_epochs = search_epochs;
    opts.retrain.epochs = retrain_epochs;
    opts.cost = cost;
    const auto out = search::run_baseline(task, table, net_config, opts);
    baseline_acc = out.val_accuracy_pct;
    t.add_row({"Baseline + HW", util::Table::fmt(out.val_accuracy_pct, 1),
               util::Table::fmt(out.metrics.latency_ms, 3),
               util::Table::fmt(out.metrics.energy_mj, 3),
               util::Table::fmt(out.metrics.edap(), 2)});
  }

  // DANCE w/ feature forwarding.
  {
    util::Rng rng(61);
    evalnet::Evaluator::Options eopts;
    eopts.cost.hidden_dim = 192;
    evalnet::Evaluator evaluator(arch_space.encoding_width(), hw_space, rng,
                                 eopts);
    auto ds = evalnet::generate_evaluator_dataset(
        table, cost, dance::bench::scaled(8000), rng);
    auto [train, val] = evalnet::split_dataset(ds, 0.85);
    evalnet::TrainOptions hw_opts;
    hw_opts.epochs = dance::bench::scaled(20);
    hw_opts.lr = 0.05F;
    evalnet::train_hwgen_net(evaluator.hwgen_net(), train, val, hw_opts);
    evalnet::TrainOptions cost_opts;
    cost_opts.epochs = dance::bench::scaled(25);
    cost_opts.lr = 4e-3F;
    evalnet::train_cost_net(evaluator.cost_net(), train, val, cost_opts);

    // Small lambda2 sweep (ImageNet-backbone EDAPs are ~100x CIFAR's);
    // report the cheapest design within a few points of the baseline's
    // accuracy, mirroring the paper's ~2%p concession.
    std::vector<search::SearchOutcome> sweep;
    for (const float l2 : {0.002F, 0.006F, 0.02F}) {
      search::DanceOptions opts;
      opts.search_epochs = search_epochs;
      opts.warmup_epochs = std::max(1, search_epochs / 4);
      opts.cost = cost;
      opts.lambda2 = l2;
      opts.retrain.epochs = retrain_epochs;
      opts.seed = 61 + static_cast<std::uint64_t>(l2 * 100);
      search::DanceSearch dance_search(task, table, evaluator, net_config, opts);
      sweep.push_back(dance_search.run());
    }
    // Fallback if nothing lands within the accuracy budget: the most
    // accurate point of the sweep.
    search::SearchOutcome out =
        search::select_design_points(sweep, cost, 2.5).accuracy_oriented;
    for (const auto& o : sweep) {
      if (o.val_accuracy_pct + 3.0 >= baseline_acc &&
          cost(o.metrics) < cost(out.metrics)) {
        out = o;
      }
    }
    t.add_row({"DANCE (w/ FF)", util::Table::fmt(out.val_accuracy_pct, 1),
               util::Table::fmt(out.metrics.latency_ms, 3),
               util::Table::fmt(out.metrics.energy_mj, 3),
               util::Table::fmt(out.metrics.edap(), 2)});
  }

  std::printf("%s\n", t.to_string().c_str());
  std::printf("paper shape: 70.6%% / 10.3ms / 43.0mJ / 1212.6 baseline vs "
              "68.7%% / 8.1ms / 36.3mJ / 808.3 DANCE.\n\n");
}

/// Microbenchmark: cost-model evaluation of the full ImageNet-backbone
/// network on one accelerator configuration.
void BM_ImagenetNetworkCost(benchmark::State& state) {
  arch::ArchSpace space(arch::imagenet_backbone());
  accel::CostModel model;
  util::Rng rng(3);
  const auto layers = space.lower(space.random(rng));
  const accel::AcceleratorConfig cfg{16, 16, 32,
                                     accel::Dataflow::kRowStationary};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.network_cost(cfg, layers));
  }
}
BENCHMARK(BM_ImagenetNetworkCost)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  run_table4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

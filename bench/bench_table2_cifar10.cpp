// Reproduction of Table 2: "Performance of DANCE on CIFAR-10".
//
// For each hardware cost function (EDAP, Eq. 4; linear with lambda_L=4.1,
// lambda_E=4.8, lambda_A=1.0, Eq. 3) this harness runs:
//   - Baseline (No penalty)   + post-hoc exact HW generation
//   - Baseline (Flops penalty)+ post-hoc exact HW generation
//   - DANCE w/o feature forwarding
//   - DANCE w/ feature forwarding, accuracy-oriented  (-A, small lambda2)
//   - DANCE w/ feature forwarding, efficiency-oriented (-B, large lambda2)
//
// The CIFAR-10 supernet training is replaced by the synthetic classification
// stand-in (DESIGN.md §2); hardware numbers come from the real backbone
// convolution shapes. Expected shape: DANCE matches the baselines' accuracy
// within ~1%p while cutting latency/EDAP by large factors; -B trades a
// little accuracy for further cost reduction.
#include <benchmark/benchmark.h>

#include <algorithm>
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

struct Setup {
  data::SyntheticTask task;
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space;
  accel::CostModel model;
  arch::CostTable table{arch_space, hw_space, model};
  nas::SuperNetConfig net_config;
};

Setup make_setup() {
  Setup s;
  data::SyntheticTaskConfig dcfg;
  dcfg.train_samples = dance::bench::scaled(3072);
  dcfg.val_samples = 1024;
  s.task = data::make_synthetic_task(dcfg);
  s.net_config.input_dim = dcfg.input_dim;
  s.net_config.num_classes = dcfg.num_classes;
  s.net_config.width = 48;
  s.net_config.num_blocks = s.arch_space.num_searchable();
  return s;
}

/// Train one evaluator (hwgen + cost nets) on ground truth for `cost`.
evalnet::Evaluator train_evaluator(const Setup& s, const accel::HwCost& cost,
                                   bool ff,
                                   util::Rng& rng) {
  evalnet::Evaluator::Options eopts;
  eopts.cost.feature_forwarding = ff;
  eopts.cost.hidden_dim = 192;
  evalnet::Evaluator evaluator(s.arch_space.encoding_width(), s.hw_space, rng,
                               eopts);
  auto ds = evalnet::generate_evaluator_dataset(
      s.table, cost, dance::bench::scaled(8000), rng);
  auto [train, val] = evalnet::split_dataset(ds, 0.85);
  evalnet::TrainOptions hw_opts;
  hw_opts.epochs = dance::bench::scaled(20);
  hw_opts.lr = 0.05F;
  evalnet::train_hwgen_net(evaluator.hwgen_net(), train, val, hw_opts);
  evalnet::TrainOptions cost_opts;
  cost_opts.epochs = dance::bench::scaled(25);
  cost_opts.lr = 4e-3F;
  cost_opts.batch_size = 128;
  evalnet::train_cost_net(evaluator.cost_net(), train, val, cost_opts);
  return evaluator;
}

std::vector<std::string> row(const std::string& name,
                             const search::SearchOutcome& out) {
  return {name, util::Table::fmt(out.val_accuracy_pct, 1),
          util::Table::fmt(out.metrics.latency_ms, 3),
          util::Table::fmt(out.metrics.energy_mj, 3),
          util::Table::fmt(out.metrics.edap(), 3),
          util::Table::fmt(out.search_seconds, 0) + "s"};
}

void run_cost(const Setup& s, const accel::HwCost& cost) {
  const int search_epochs = dance::bench::scaled(12);
  const int retrain_epochs = dance::bench::scaled(25);
  std::printf("-- Cost function: %s --\n", cost.name());

  util::Table t({"Method", "Acc.(%)", "Latency(ms)", "Energy(mJ)", "EDAP",
                 "Search"});

  // Baselines (hardware-oblivious search + post-hoc HW generation).
  {
    search::BaselineOptions opts;
    opts.search_epochs = search_epochs;
    opts.retrain.epochs = retrain_epochs;
    opts.cost = cost;
    t.add_row(row("Baseline (No penalty) + HW",
                  search::run_baseline(s.task, s.table, s.net_config, opts)));
    opts.flops_weight = 0.15F;
    t.add_row(row("Baseline (Flops penalty) + HW",
                  search::run_baseline(s.task, s.table, s.net_config, opts)));
  }

  // DANCE variants. As in the paper (§4.3), -A and -B are design points
  // picked from a lambda2 sweep: -A the most accurate, -B the cheapest
  // within a small accuracy budget of -A.
  auto run_dance = [&](evalnet::Evaluator& evaluator, float lambda2,
                       std::uint64_t seed) {
    search::DanceOptions opts;
    opts.search_epochs = search_epochs;
    opts.warmup_epochs = std::max(1, search_epochs / 4);
    opts.cost = cost;
    opts.lambda2 = lambda2;
    opts.retrain.epochs = retrain_epochs;
    opts.seed = seed;
    search::DanceSearch dance(s.task, s.table, evaluator, s.net_config, opts);
    return dance.run();
  };

  // lambda2 grids per cost: EDAP is O(0.05-0.3), linear cost is O(5-10).
  const std::vector<float> grid =
      cost.kind() == accel::HwCost::Kind::kEdap
          ? std::vector<float>{1.0F, 2.5F, 4.0F, 6.0F}
          : std::vector<float>{0.04F, 0.1F, 0.25F, 0.5F};

  {
    util::Rng rng(31);
    evalnet::Evaluator ev = train_evaluator(s, cost, /*ff=*/false, rng);
    t.add_row(row("DANCE (w/o FF)", run_dance(ev, grid[1], 31)));
  }
  {
    util::Rng rng(32);
    evalnet::Evaluator ev = train_evaluator(s, cost, /*ff=*/true, rng);
    std::vector<search::SearchOutcome> sweep;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      sweep.push_back(run_dance(ev, grid[i], 33 + i));
    }
    // -A/-B selection as in §4.3 (the paper allows a 1%p accuracy drop for
    // -B; our retrained accuracies carry a little more noise, hence 2.5).
    const search::DesignPoints points =
        search::select_design_points(sweep, cost, 2.5);
    t.add_row(row("DANCE (w/ FF)-A", points.accuracy_oriented));
    t.add_row(row("DANCE (w/ FF)-B", points.efficiency_oriented));
  }

  std::printf("%s\n", t.to_string().c_str());
}

void run_table2() {
  std::printf("== Table 2: Performance of DANCE on CIFAR-10 (synthetic "
              "stand-in task) ==\n\n");
  Setup s = make_setup();
  run_cost(s, accel::edap_cost());
  run_cost(s, accel::linear_cost());
}

/// Microbenchmark: one DANCE architecture-step loss evaluation through the
/// frozen evaluator (the inner-loop cost the differentiable method pays
/// instead of training a candidate).
void BM_EvaluatorForwardBackward(benchmark::State& state) {
  Setup s = make_setup();
  util::Rng rng(5);
  evalnet::Evaluator::Options eopts;
  eopts.cost.hidden_dim = 192;
  evalnet::Evaluator evaluator(s.arch_space.encoding_width(), s.hw_space, rng,
                               eopts);
  evaluator.set_frozen(true);
  evaluator.set_training(false);
  tensor::Variable enc(
      tensor::Tensor::full({1, s.arch_space.encoding_width()}, 1.0F / 7.0F),
      true);
  for (auto _ : state) {
    enc.zero_grad();
    const auto out = evaluator.forward(enc, rng);
    const auto cost =
        search::hw_cost_variable(out.metrics, accel::edap_cost());
    tensor::ops::sum_all(cost).backward();
    benchmark::DoNotOptimize(enc.grad());
  }
}
BENCHMARK(BM_EvaluatorForwardBackward)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  run_table2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

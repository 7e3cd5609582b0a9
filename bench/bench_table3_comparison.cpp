// Reproduction of Table 3: "Comparison of Existing Co-exploration
// Algorithms".
//
// The published comparison spans different hardware environments, so (like
// the paper) the comparable columns are accuracy, search cost, and above all
// the number of candidate networks each method must *train*: RL-based
// co-exploration needs hundreds-to-thousands, DANCE needs exactly one.
// Here both methods run on an equal search space: our REINFORCE
// co-exploration baseline vs. DANCE.
//
// Rows are printed as a table and written to bench/data/table3_comparison.csv
// (override the directory with DANCE_BENCH_DATA_DIR).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "arch/cost_table.h"
#include "evalnet/trainer.h"
#include "search/dance.h"
#include "search/design_points.h"
#include "search/ea.h"
#include "search/rl.h"
#include "util/csv.h"
#include "util/table.h"

#include "bench_common.h"

namespace {

using namespace dance;

void run_table3() {
  std::printf("== Table 3: Co-exploration algorithm comparison (equal search "
              "space) ==\n\n");

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

  const int retrain_epochs = dance::bench::scaled(25);

  // --- RL-based co-exploration (the prior-work approach, Fig. 2). ---
  search::RlOptions rl_opts;
  rl_opts.num_candidates = dance::bench::scaled(120);
  rl_opts.proxy_epochs = 3;
  rl_opts.retrain.epochs = retrain_epochs;
  const search::SearchOutcome rl =
      search::run_rl_coexploration(task, table, net_config, rl_opts);

  // --- Evolutionary co-exploration (regularized evolution, joint genome).
  search::EaOptions ea_opts;
  ea_opts.population = dance::bench::scaled(16);
  ea_opts.generations = dance::bench::scaled(6);
  ea_opts.retrain.epochs = retrain_epochs;
  const search::SearchOutcome ea =
      search::run_ea_coexploration(task, table, net_config, ea_opts);

  // --- DANCE (1 trained candidate: the supernet itself). ---
  util::Rng rng(41);
  evalnet::Evaluator::Options eopts;
  eopts.cost.hidden_dim = 192;
  evalnet::Evaluator evaluator(arch_space.encoding_width(), hw_space, rng, eopts);
  {
    auto ds = evalnet::generate_evaluator_dataset(
        table, accel::edap_cost(),
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
  // Like Table 2, report the accuracy-oriented point of a small lambda2
  // sweep (still one trained candidate per search; the whole sweep is
  // cheaper than proxy-training a handful of RL candidates).
  std::vector<search::SearchOutcome> sweep;
  double sweep_seconds = 0.0;
  for (const float l2 : {1.0F, 2.0F, 3.0F}) {
    search::DanceOptions d_opts;
    d_opts.search_epochs = dance::bench::scaled(12);
    d_opts.warmup_epochs = std::max(1, d_opts.search_epochs / 4);
    d_opts.lambda2 = l2;
    d_opts.retrain.epochs = retrain_epochs;
    d_opts.seed = 41 + static_cast<std::uint64_t>(l2 * 10);
    search::DanceSearch dance_search(task, table, evaluator, net_config, d_opts);
    sweep.push_back(dance_search.run());
    sweep_seconds += sweep.back().search_seconds;
  }
  search::SearchOutcome dance_out =
      search::select_design_points(sweep, accel::edap_cost(),
                                   2.5)
          .efficiency_oriented;
  dance_out.search_seconds = sweep_seconds;

  util::Table t({"Algorithm", "Method", "Acc.(%)", "EDAP", "Search(s)",
                 "#Candidates"});
  const std::string csv_path = dance::bench::data_path("table3_comparison.csv");
  util::CsvWriter csv(csv_path, {"algorithm", "method", "acc_pct", "edap",
                                 "search_s", "candidates"});
  const struct {
    const char* algorithm;
    const char* method;
    const search::SearchOutcome& out;
  } rows[] = {{"RL co-exploration (prior work)", "RL", rl},
              {"EA co-exploration (regularized evolution)", "EA", ea},
              {"DANCE", "gradient", dance_out}};
  for (const auto& r : rows) {
    t.add_row({r.algorithm, r.method,
               util::Table::fmt(r.out.val_accuracy_pct, 1),
               util::Table::fmt(r.out.metrics.edap(), 3),
               util::Table::fmt(r.out.search_seconds, 1),
               std::to_string(r.out.trained_candidates)});
    csv.add_row({r.algorithm, r.method,
                 util::Table::fmt(r.out.val_accuracy_pct, 3),
                 util::Table::fmt(r.out.metrics.edap(), 5),
                 util::Table::fmt(r.out.search_seconds, 2),
                 std::to_string(r.out.trained_candidates)});
  }
  csv.flush();
  std::printf("%s\n", t.to_string().c_str());
  std::printf("data written to %s\n", csv_path.c_str());
  std::printf("paper shape: RL methods train 10^2..10^3 candidates; DANCE "
              "trains 1 and matches/beats accuracy.\n\n");
}

/// Microbenchmark: marginal cost of evaluating one more RL candidate
/// (proxy-training included) — the unit the RL search pays per sample.
void BM_RlCandidateEvaluation(benchmark::State& state) {
  data::SyntheticTaskConfig dcfg;
  dcfg.train_samples = 512;
  dcfg.val_samples = 128;
  const data::SyntheticTask task = data::make_synthetic_task(dcfg);
  nas::SuperNetConfig cfg;
  cfg.input_dim = dcfg.input_dim;
  cfg.num_classes = dcfg.num_classes;
  cfg.width = 48;
  cfg.num_blocks = 9;
  util::Rng rng(1);
  arch::ArchSpace arch_space(arch::cifar10_backbone());
  nas::FixedTrainOptions proxy;
  proxy.epochs = 3;
  for (auto _ : state) {
    const arch::Architecture a = arch_space.random(rng);
    nas::FixedNet net(cfg, a, rng);
    benchmark::DoNotOptimize(nas::train_fixed_net(net, task, proxy));
  }
}
BENCHMARK(BM_RlCandidateEvaluation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_table3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// Multi-objective Pareto co-search from the command line (docs/search.md).
//
// One invocation sweeps a lambda2 ladder across the pool, applies optional
// hard constraints (die-area budget, latency SLO), prints the non-dominated
// (error, latency, energy, area) front, verifies every front point against
// the exact cost table, and writes the front CSV. With --restarts N it
// additionally compares history-penalty restarts against plain multi-seed
// restarts (the VLSIGR-style negotiated-congestion exploration).
//
// Usage:
//   pareto_search [--small] [--lambda2 0.5,1,2,4] [--area-budget MM2]
//                 [--latency-slo MS] [--restarts N] [--out front.csv]
//
// --small shrinks every knob for a seconds-scale smoke (the CI release job
// runs exactly that and asserts the CSV is non-empty and dominance-sorted).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "arch/cost_table.h"
#include "evalnet/trainer.h"
#include "search/pareto.h"
#include "util/table.h"

namespace {

using namespace dance;
using search::CostKind;

struct Args {
  bool small = false;
  std::vector<float> lambda2 = {0.5F, 1.0F, 2.0F, 4.0F};
  double area_budget = std::numeric_limits<double>::infinity();
  double latency_slo = std::numeric_limits<double>::infinity();
  int restarts = 0;
  std::string out = "pareto_front.csv";
};

std::vector<float> parse_list(const char* s) {
  std::vector<float> values;
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) values.push_back(std::stof(token));
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return values;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--small") == 0) {
      args.small = true;
    } else if (std::strcmp(argv[i], "--lambda2") == 0) {
      args.lambda2 = parse_list(value());
    } else if (std::strcmp(argv[i], "--area-budget") == 0) {
      args.area_budget = std::atof(value());
    } else if (std::strcmp(argv[i], "--latency-slo") == 0) {
      args.latency_slo = std::atof(value());
    } else if (std::strcmp(argv[i], "--restarts") == 0) {
      args.restarts = std::atoi(value());
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args.out = value();
    } else {
      std::fprintf(stderr,
                   "usage: pareto_search [--small] [--lambda2 a,b,c] "
                   "[--area-budget MM2] [--latency-slo MS] [--restarts N] "
                   "[--out FILE]\n");
      std::exit(2);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // --- Spaces, task, cost table. ---
  arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw_space =
      args.small ? hwgen::HwSearchSpace::small() : hwgen::HwSearchSpace();
  accel::CostModel model;
  arch::CostTable table(arch_space, hw_space, model);

  data::SyntheticTaskConfig dcfg;
  if (args.small) {
    dcfg.input_dim = 12;
    dcfg.num_classes = 6;
    dcfg.train_samples = 512;
    dcfg.val_samples = 192;
  }
  const data::SyntheticTask task = data::make_synthetic_task(dcfg);

  nas::SuperNetConfig net_config;
  net_config.input_dim = dcfg.input_dim;
  net_config.num_classes = dcfg.num_classes;
  net_config.width = args.small ? 24 : 48;
  net_config.num_blocks = arch_space.num_searchable();

  // --- Evaluator pre-training (shared by every sweep entry). ---
  util::Rng rng(23);
  evalnet::Evaluator::Options eopts;
  if (args.small) {
    eopts.hwgen.hidden_dim = 32;
    eopts.cost.hidden_dim = 32;
  }
  evalnet::Evaluator evaluator(arch_space.encoding_width(), hw_space, rng,
                               eopts);
  {
    auto ds = evalnet::generate_evaluator_dataset(
        table, search::make_cost_fn(CostKind::kEdap),
        args.small ? 200 : 4000, rng);
    auto [train, val] = evalnet::split_dataset(ds, 0.85);
    evalnet::TrainOptions topts;
    topts.epochs = args.small ? 6 : 20;
    evalnet::train_hwgen_net(evaluator.hwgen_net(), train, val, topts);
    topts.lr = 3e-3F;
    evalnet::train_cost_net(evaluator.cost_net(), train, val, topts);
  }

  // --- The Pareto sweep. ---
  search::ParetoOptions opts;
  opts.base.search_epochs = args.small ? 3 : 12;
  opts.base.warmup_epochs = args.small ? 1 : 3;
  opts.base.retrain.epochs = args.small ? 4 : 20;
  opts.base.constraints.area_budget_mm2 = args.area_budget;
  opts.base.constraints.latency_slo_ms = args.latency_slo;
  opts.sweep = search::lambda2_sweep(args.lambda2);

  std::printf("sweeping %zu lambda2 values (%s)...\n", opts.sweep.size(),
              opts.base.constraints.enabled() ? "constrained"
                                              : "unconstrained");
  const search::ParetoResult result =
      search::ParetoCoSearch(task, table, evaluator, net_config, opts).run();

  util::Table t({"", "lambda2", "Error(%)", "Lat(ms)", "E(mJ)", "Area(mm2)",
                 "Feasible"});
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const auto& p = result.points[i];
    t.add_row({p.on_front ? "front" : (p.feasible ? "" : "infeasible"),
               util::Table::fmt(p.scalarization.lambda2, 2),
               util::Table::fmt(p.outcome.error_pct(), 2),
               util::Table::fmt(p.outcome.metrics.latency_ms, 3),
               util::Table::fmt(p.outcome.metrics.energy_mj, 3),
               util::Table::fmt(p.outcome.metrics.area_mm2, 2),
               p.feasible ? "yes" : "no"});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("front size: %zu of %zu swept points\n", result.front.size(),
              result.points.size());

  // --- Verification against the exact cost table. ---
  const std::string err =
      search::verify_front(result, table, opts.base.constraints);
  if (!err.empty()) {
    std::printf("front verification FAILED: %s\n", err.c_str());
    return 1;
  }
  std::printf("front verified: every point non-dominated against the "
              "constrained exhaustive sweep\n");

  search::write_front_csv(args.out, result);
  std::printf("front CSV written to %s\n", args.out.c_str());

  // --- Optional: history-penalty vs multi-seed restarts. ---
  if (args.restarts > 0) {
    std::printf("\ncomparing %d history-penalty restarts against plain "
                "multi-seed restarts...\n", args.restarts);
    search::RestartOptions ropts;
    ropts.base = opts.base;
    ropts.restarts = args.restarts;
    ropts.history = false;
    const auto multiseed = search::run_restarts(task, table, evaluator,
                                                net_config, ropts);
    ropts.history = true;
    const auto history = search::run_restarts(task, table, evaluator,
                                              net_config, ropts);
    util::Table rt({"Series", "DistinctArch", "DistinctHW", "MeanArchDist",
                    "FrontSize"});
    const auto row = [&rt](const char* name,
                           const search::RestartResult& r) {
      rt.add_row({name, std::to_string(r.distinct_architectures),
                  std::to_string(r.distinct_hardware),
                  util::Table::fmt(r.mean_pairwise_arch_distance, 3),
                  std::to_string(r.front.size())});
    };
    row("multi-seed", multiseed);
    row("history-penalty", history);
    std::printf("%s\n", rt.to_string().c_str());
    std::printf("expected shape: the history series explores more distinct "
                "(arch, HW) regions at comparable front quality.\n");
  }
  return 0;
}

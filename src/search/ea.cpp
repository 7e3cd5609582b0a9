#include "search/ea.h"

#include <chrono>
#include <deque>
#include <limits>
#include <stdexcept>

namespace dance::search {

namespace {

/// One genome of the joint co-exploration space.
struct Genome {
  arch::Architecture architecture;
  accel::AcceleratorConfig hardware;
  double fitness = 0.0;
  double proxy_accuracy_pct = 0.0;
  accel::CostMetrics metrics;
};

}  // namespace

SearchOutcome run_ea_coexploration(const data::SyntheticTask& task,
                                   const arch::CostTable& cost_table,
                                   const nas::SuperNetConfig& net_config,
                                   const EaOptions& opts) {
  if (opts.population < 2 || opts.generations < 1 || opts.tournament < 1) {
    throw std::invalid_argument("run_ea_coexploration: bad options");
  }
  const auto t_start = std::chrono::steady_clock::now();
  util::Rng rng(opts.seed);
  const auto& arch_space = cost_table.arch_space();
  const auto& hw_space = cost_table.hw_space();
  const accel::HwCostFn cost_fn = make_cost_fn(opts.cost_kind, opts.linear_weights);

  nas::FixedTrainOptions proxy;
  proxy.epochs = opts.proxy_epochs;
  proxy.batch_size = opts.proxy_batch_size;
  proxy.lr = opts.proxy_lr;

  double cost_ref;
  {
    const arch::Architecture probe = arch_space.random(rng);
    cost_ref = std::max(1e-12, cost_table.optimal(probe, cost_fn).cost);
  }

  int trained = 0;
  auto evaluate = [&](Genome& g) {
    proxy.seed = opts.seed + static_cast<std::uint64_t>(++trained) * 13;
    util::Rng init_rng(proxy.seed);
    nas::FixedNet net(net_config, g.architecture, init_rng);
    const nas::FixedTrainResult r = nas::train_fixed_net(net, task, proxy);
    g.proxy_accuracy_pct = r.val_accuracy_pct;
    g.metrics = cost_table.metrics(hw_space.index_of(g.hardware), g.architecture);
    g.fitness =
        r.val_accuracy_pct / 100.0 - opts.beta * cost_fn(g.metrics) / cost_ref;
  };

  auto random_hw = [&]() {
    return hw_space.config_at(static_cast<std::size_t>(
        rng.randint(0, static_cast<int>(hw_space.size()) - 1)));
  };
  auto mutate = [&](Genome child) {
    // One point mutation on either the network or the accelerator side.
    if (rng.randint(0, 1) == 0) {
      const int slot = rng.randint(0, arch_space.num_searchable() - 1);
      child.architecture[static_cast<std::size_t>(slot)] =
          arch::kAllCandidateOps[static_cast<std::size_t>(
              rng.randint(0, arch::kNumCandidateOps - 1))];
    } else {
      const auto& o = hw_space.options();
      switch (rng.randint(0, 3)) {
        case 0: child.hardware.pe_x = rng.randint(o.pe_min, o.pe_max); break;
        case 1: child.hardware.pe_y = rng.randint(o.pe_min, o.pe_max); break;
        case 2:
          child.hardware.rf_size =
              hw_space.rf_value(rng.randint(0, hw_space.num_rf_choices() - 1));
          break;
        default:
          child.hardware.dataflow = hw_space.dataflow_value(rng.randint(0, 2));
          break;
      }
    }
    return child;
  };

  // Initial population: random genomes (aging/regularized evolution queue).
  std::deque<Genome> population;
  Genome best;
  best.fitness = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < opts.population; ++i) {
    Genome g;
    g.architecture = arch_space.random(rng);
    g.hardware = random_hw();
    evaluate(g);
    if (g.fitness > best.fitness) best = g;
    population.push_back(std::move(g));
  }

  for (int gen = 0; gen < opts.generations; ++gen) {
    for (int i = 0; i < opts.population; ++i) {
      // Tournament selection of a parent.
      const Genome* parent = nullptr;
      for (int t = 0; t < opts.tournament; ++t) {
        const auto& cand = population[static_cast<std::size_t>(
            rng.randint(0, static_cast<int>(population.size()) - 1))];
        if (parent == nullptr || cand.fitness > parent->fitness) parent = &cand;
      }
      Genome child = mutate(*parent);
      evaluate(child);
      if (child.fitness > best.fitness) best = child;
      // Regularized evolution: kill the oldest, not the weakest.
      population.push_back(std::move(child));
      population.pop_front();
    }
  }

  SearchOutcome out;
  out.architecture = best.architecture;
  out.hardware = best.hardware;
  out.metrics = best.metrics;
  out.trained_candidates = trained;
  const auto t_end = std::chrono::steady_clock::now();
  out.search_seconds = std::chrono::duration<double>(t_end - t_start).count();

  util::Rng retrain_rng(opts.seed + 1);
  nas::FixedNet fixed(net_config, out.architecture, retrain_rng);
  const nas::FixedTrainResult r = nas::train_fixed_net(fixed, task, opts.retrain);
  out.val_accuracy_pct = r.val_accuracy_pct;
  return out;
}

}  // namespace dance::search

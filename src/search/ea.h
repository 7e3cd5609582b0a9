#pragma once

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "data/synthetic.h"
#include "nas/supernet.h"
#include "nas/trainer.h"
#include "search/outcome.h"

namespace dance::search {

/// Options of the evolutionary co-exploration baseline: regularized
/// evolution (Real et al. 2019, cited in §2.1) extended to the *joint*
/// (architecture, accelerator) genome. Like the RL baseline, every sampled
/// child must be proxy-trained, so the search cost scales with the number of
/// evaluated candidates — the axis on which DANCE wins.
struct EaOptions {
  int population = 16;
  int generations = 8;       ///< children = population * generations
  int tournament = 4;        ///< sample size for parent selection
  int proxy_epochs = 3;
  int proxy_batch_size = 128;
  float proxy_lr = 0.01F;
  /// Fitness = accuracy/100 - beta * cost / cost_reference.
  float beta = 0.5F;
  accel::HwCost cost = accel::edap_cost();
  nas::FixedTrainOptions retrain{};
  std::uint64_t seed = 42;
};

/// Run the evolutionary co-exploration; `trained_candidates` equals the
/// number of proxy-trained genomes (population + children).
[[nodiscard]] SearchOutcome run_ea_coexploration(
    const data::SyntheticTask& task, const arch::CostTable& cost_table,
    const nas::SuperNetConfig& net_config, const EaOptions& opts);

}  // namespace dance::search

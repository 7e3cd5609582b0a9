#pragma once

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "data/synthetic.h"
#include "nas/supernet.h"
#include "nas/trainer.h"
#include "search/outcome.h"

namespace dance::search {

/// Options of the RL-based co-exploration comparator (Fig. 2 / Table 3):
/// a REINFORCE controller over the *joint* (architecture, accelerator)
/// space. Every candidate must be trained to obtain its reward — the
/// search-cost problem DANCE eliminates.
struct RlOptions {
  int num_candidates = 120;     ///< candidates sampled & trained
  /// Proxy training budget per candidate (the expensive part; real RL
  /// co-explorations train each candidate for hours).
  int proxy_epochs = 3;
  int proxy_batch_size = 128;
  float proxy_lr = 0.01F;
  float policy_lr = 0.15F;
  /// Reward = accuracy/100 - beta * cost / cost_reference.
  float beta = 0.5F;
  accel::HwCost cost = accel::edap_cost();
  nas::FixedTrainOptions retrain{};
  std::uint64_t seed = 42;
};

/// Run the RL co-exploration and return the best candidate, fully
/// retrained. `trained_candidates` in the outcome equals
/// `opts.num_candidates` — the Table 3 comparison point.
[[nodiscard]] SearchOutcome run_rl_coexploration(
    const data::SyntheticTask& task, const arch::CostTable& cost_table,
    const nas::SuperNetConfig& net_config, const RlOptions& opts);

}  // namespace dance::search

#pragma once

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "data/synthetic.h"
#include "nas/supernet.h"
#include "nas/trainer.h"
#include "search/outcome.h"

namespace dance::search {

/// Options of the hardware-oblivious ProxylessNAS baseline of Table 2:
/// differentiable NAS with no hardware term ("No penalty") or with a
/// differentiable expected-FLOPs regularizer ("Flops penalty"), followed by
/// post-hoc exact hardware generation on the searched network.
struct BaselineOptions {
  int search_epochs = 24;
  int batch_size = 128;
  /// Run the architecture step every N-th batch (cf. DanceOptions).
  int arch_update_period = 2;
  float weight_lr = 0.01F;
  float weight_momentum = 0.9F;
  float weight_decay = 4e-5F;
  float arch_lr = 5e-3F;
  /// Weight of the expected-FLOPs penalty (0 = "No penalty" baseline).
  /// The penalty term is flops_weight * E[MACs]/1e6.
  float flops_weight = 0.0F;
  float gumbel_tau = 1.0F;
  /// Cost function used for the *post-hoc* hardware generation and reports.
  accel::HwCost cost = accel::edap_cost();
  nas::FixedTrainOptions retrain{};
  std::uint64_t seed = 42;
};

/// Run the baseline search ("Baseline (No penalty) + HW" /
/// "Baseline (Flops penalty) + HW" rows).
[[nodiscard]] SearchOutcome run_baseline(const data::SyntheticTask& task,
                                         const arch::CostTable& cost_table,
                                         const nas::SuperNetConfig& net_config,
                                         const BaselineOptions& opts);

}  // namespace dance::search

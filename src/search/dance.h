#pragma once

#include "arch/cost_table.h"
#include "data/synthetic.h"
#include "evalnet/evaluator.h"
#include "nas/supernet.h"
#include "nas/trainer.h"
#include "search/cost_term.h"
#include "search/outcome.h"
#include "search/warmup.h"

namespace dance::search {

/// How architecture-parameter gradients are formed.
enum class ArchUpdate {
  kGumbelSt,          ///< hard straight-through Gumbel gates over all paths
  kBinarizedTwoPath,  ///< ProxylessNAS binarized two-path sampling
};

/// Options of the DANCE differentiable co-exploration (§3.2).
struct DanceOptions {
  int search_epochs = 24;
  int batch_size = 128;
  ArchUpdate arch_update = ArchUpdate::kGumbelSt;
  /// Run the architecture step every N-th batch (weight steps every batch).
  /// 2 halves the search cost with little quality impact.
  int arch_update_period = 2;
  // Weight-update path (paper: SGD + Nesterov, cosine schedule, wd 4e-5).
  float weight_lr = 0.01F;
  float weight_momentum = 0.9F;
  float weight_decay = 4e-5F;  ///< lambda_1 of Eq. 1
  // Architecture-parameter path (Adam, as in ProxylessNAS).
  float arch_lr = 5e-3F;
  // Hardware cost term.
  accel::HwCost cost = accel::edap_cost();
  float lambda2 = 1.0F;          ///< Eq. 1 hardware cost weight
  int warmup_epochs = 6;         ///< §3.4 warm-up before lambda2 ramps in
  float warmup_lambda2 = 0.0F;
  float gumbel_tau = 1.0F;
  nas::FixedTrainOptions retrain{};
  std::uint64_t seed = 42;
  bool verbose = false;
};

/// The DANCE search loop: alternating supernet weight updates (sampled
/// single path, cross-entropy) and architecture parameter updates through
/// Loss = CE + lambda1*||w|| + lambda2*Cost_HW, where Cost_HW flows through
/// the frozen differentiable evaluator. After the search a one-time exact
/// hardware generation is run and the derived network retrained from
/// scratch, exactly as in §4.3.
class DanceSearch {
 public:
  DanceSearch(const data::SyntheticTask& task, const arch::CostTable& cost_table,
              evalnet::Evaluator& evaluator, const nas::SuperNetConfig& net_config,
              const DanceOptions& opts);

  [[nodiscard]] SearchOutcome run();

  /// Arch-parameter op distribution after the search (diagnostics).
  [[nodiscard]] const std::vector<std::vector<double>>& final_probs() const {
    return final_probs_;
  }

 private:
  const data::SyntheticTask& task_;
  const arch::CostTable& cost_table_;
  evalnet::Evaluator& evaluator_;
  nas::SuperNetConfig net_config_;
  DanceOptions opts_;
  std::vector<std::vector<double>> final_probs_;
};

}  // namespace dance::search

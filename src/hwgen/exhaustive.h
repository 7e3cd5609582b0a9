#pragma once

#include <span>

#include "accel/cost_function.h"
#include "accel/cost_model.h"
#include "hwgen/search_space.h"

namespace dance::hwgen {

/// Result of a hardware generation run: the optimal configuration for the
/// given workload together with its metrics and scalar cost.
struct HwSearchResult {
  accel::AcceleratorConfig config;
  accel::CostMetrics metrics;
  double cost = 0.0;
};

/// The paper's "hardware generation tool based on exhaustive search"
/// (§3.3): evaluate every configuration in H with the cost model and return
/// the arg-min of the scalar cost function. Exact, and therefore the ground
/// truth the hardware generation *network* is trained to imitate.
class ExhaustiveSearch {
 public:
  ExhaustiveSearch(const HwSearchSpace& space, const accel::CostModel& model);

  /// Optimal configuration for a network given as a list of layer shapes.
  [[nodiscard]] HwSearchResult run(std::span<const accel::ConvShape> layers,
                                   const accel::HwCost& cost_fn) const;

  /// Optimal configuration when per-config metrics were precomputed
  /// (`metrics[i]` corresponds to `space.config_at(i)`), e.g. via a cost
  /// lookup table. Exactness is preserved; only the cost-model calls are
  /// amortized.
  [[nodiscard]] HwSearchResult run_precomputed(
      std::span<const accel::CostMetrics> metrics,
      const accel::HwCost& cost_fn) const;

  /// Per-config network metrics for all configurations in space order.
  [[nodiscard]] std::vector<accel::CostMetrics> evaluate_all(
      std::span<const accel::ConvShape> layers) const;

  [[nodiscard]] const HwSearchSpace& space() const { return space_; }

 private:
  const HwSearchSpace& space_;
  const accel::CostModel& model_;
};

}  // namespace dance::hwgen

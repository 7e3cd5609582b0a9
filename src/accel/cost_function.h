#pragma once

#include <cmath>
#include <functional>
#include <stdexcept>

#include "accel/cost_model.h"

namespace dance::accel {

/// Weights of the linear hardware cost function (Eq. 3):
///   Cost = lambda_e * Energy + lambda_l * Latency + lambda_a * Area.
/// Defaults are the paper's Table 2 setting (lambda_L=4.1, lambda_E=4.8,
/// lambda_A=1.0), applied to (ms, mJ, mm^2).
struct LinearCostWeights {
  double lambda_l = 4.1;
  double lambda_e = 4.8;
  double lambda_a = 1.0;
};

/// Scalar hardware cost function Cost_HW of Eq. 1.
///
/// Contract: the cost is non-decreasing in latency, energy and area — a
/// design that is no worse on all three never costs more. Exact hardware
/// generation (arch::CostTable::optimal) relies on it to skip dominated
/// configurations. EDAP and Eq. 3 with non-negative weights both meet it.
using HwCostFn = std::function<double(const CostMetrics&)>;

/// Eq. 3 linear combination. Throws std::invalid_argument on a negative or
/// non-finite weight, which would break the HwCostFn contract.
[[nodiscard]] inline HwCostFn linear_cost(LinearCostWeights w = {}) {
  for (const double lambda : {w.lambda_l, w.lambda_e, w.lambda_a}) {
    if (!std::isfinite(lambda) || lambda < 0.0) {
      throw std::invalid_argument(
          "linear_cost: weights must be finite and non-negative");
    }
  }
  return [w](const CostMetrics& m) {
    return w.lambda_l * m.latency_ms + w.lambda_e * m.energy_mj +
           w.lambda_a * m.area_mm2;
  };
}

/// Eq. 4 energy-delay-area product (hyper-parameter free, unitless) as a
/// concrete functor. Besides CostMetrics it takes the three metrics as any
/// arithmetic type, so arch::CostTable::optimal can evaluate it on GCC
/// vector lanes; both forms multiply in CostMetrics::edap's order, so they
/// give the same bits.
struct Edap {
  template <typename T>
  [[nodiscard]] T operator()(T latency_ms, T energy_mj, T area_mm2) const {
    return energy_mj * latency_ms * area_mm2;
  }
  [[nodiscard]] double operator()(const CostMetrics& m) const {
    return (*this)(m.latency_ms, m.energy_mj, m.area_mm2);
  }
};

/// Eq. 4 as an HwCostFn (wraps Edap).
[[nodiscard]] inline HwCostFn edap_cost() { return Edap{}; }

}  // namespace dance::accel

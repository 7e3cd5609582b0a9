#pragma once

#include <stdexcept>

#include "accel/cost_function.h"
#include "tensor/ops.h"

namespace dance::search {

/// Differentiable Cost_HW (§3.5) from the evaluator's predicted metrics
/// ([1, 3] = latency_ms, energy_mj, area_mm2). The returned scalar variable
/// back-propagates into the architecture parameters through the evaluator.
[[nodiscard]] inline tensor::Variable hw_cost_variable(
    const tensor::Variable& metrics, const accel::HwCost& cost) {
  namespace ops = dance::tensor::ops;
  const tensor::Variable lat = ops::slice_cols(metrics, 0, 1);
  const tensor::Variable energy = ops::slice_cols(metrics, 1, 2);
  const tensor::Variable area = ops::slice_cols(metrics, 2, 3);
  switch (cost.kind()) {
    case accel::HwCost::Kind::kLinear: {
      const accel::LinearCostWeights& w = cost.weights();
      return ops::add(
          ops::add(ops::scale(lat, static_cast<float>(w.lambda_l)),
                   ops::scale(energy, static_cast<float>(w.lambda_e))),
          ops::scale(area, static_cast<float>(w.lambda_a)));
    }
    case accel::HwCost::Kind::kEdap:
      return ops::mul(ops::mul(lat, energy), area);
  }
  throw std::logic_error("hw_cost_variable: unknown kind");
}

}  // namespace dance::search

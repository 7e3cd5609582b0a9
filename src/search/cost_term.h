#pragma once

#include <stdexcept>

#include "accel/cost_function.h"
#include "tensor/ops.h"

namespace dance::search {

/// Which Cost_HW of §3.5 the search optimizes.
enum class CostKind {
  kLinear,  ///< Eq. 3: lambda_E*E + lambda_L*L + lambda_A*A
  kEdap,    ///< Eq. 4: E * L * A
};

/// Differentiable Cost_HW from the evaluator's predicted metrics
/// ([1, 3] = latency_ms, energy_mj, area_mm2). The returned scalar variable
/// back-propagates into the architecture parameters through the evaluator.
[[nodiscard]] inline tensor::Variable hw_cost_variable(
    const tensor::Variable& metrics, CostKind kind,
    const accel::LinearCostWeights& weights = {}) {
  namespace ops = dance::tensor::ops;
  const tensor::Variable lat = ops::slice_cols(metrics, 0, 1);
  const tensor::Variable energy = ops::slice_cols(metrics, 1, 2);
  const tensor::Variable area = ops::slice_cols(metrics, 2, 3);
  switch (kind) {
    case CostKind::kLinear:
      return ops::add(
          ops::add(ops::scale(lat, static_cast<float>(weights.lambda_l)),
                   ops::scale(energy, static_cast<float>(weights.lambda_e))),
          ops::scale(area, static_cast<float>(weights.lambda_a)));
    case CostKind::kEdap:
      return ops::mul(ops::mul(lat, energy), area);
  }
  throw std::logic_error("hw_cost_variable: unknown kind");
}

/// The matching scalar (non-differentiable) cost function for exact
/// hardware generation and reporting.
[[nodiscard]] inline accel::HwCostFn make_cost_fn(
    CostKind kind, const accel::LinearCostWeights& weights = {}) {
  return kind == CostKind::kLinear ? accel::linear_cost(weights)
                                   : accel::edap_cost();
}

[[nodiscard]] inline const char* to_string(CostKind kind) {
  return kind == CostKind::kLinear ? "linear" : "EDAP";
}

}  // namespace dance::search

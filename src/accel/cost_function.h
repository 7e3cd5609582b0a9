#pragma once

#include <cmath>
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

class HwCost;
[[nodiscard]] inline HwCost linear_cost(LinearCostWeights w = {});
[[nodiscard]] inline HwCost edap_cost();

/// Scalar hardware cost function Cost_HW of Eq. 1: one of the paper's two
/// closed forms, Eq. 3 (linear) or Eq. 4 (EDAP). Only `linear_cost` and
/// `edap_cost` make one.
///
/// Contract: the cost is non-decreasing in latency, energy and area — a
/// design that is no worse on all three never costs more. Exact hardware
/// generation (arch::CostTable::optimal) relies on it to skip dominated
/// configurations. Both forms meet it by construction: EDAP multiplies
/// non-negative metrics, and `linear_cost` rejects a negative weight.
class HwCost {
 public:
  enum class Kind { kLinear, kEdap };

  /// Eq. 3 on any arithmetic type, GCC vector lanes included, associated
  /// as the scalar form: (lambda_l*L + lambda_e*E) + lambda_a*A.
  struct Linear {
    LinearCostWeights w;
    template <typename T>
    [[nodiscard]] T operator()(T latency_ms, T energy_mj, T area_mm2) const {
      return w.lambda_l * latency_ms + w.lambda_e * energy_mj +
             w.lambda_a * area_mm2;
    }
  };

  /// Eq. 4 on any arithmetic type, multiplied in CostMetrics::edap's order.
  struct Edap {
    template <typename T>
    [[nodiscard]] T operator()(T latency_ms, T energy_mj, T area_mm2) const {
      return energy_mj * latency_ms * area_mm2;
    }
  };

  [[nodiscard]] Kind kind() const { return kind_; }
  /// The Eq. 3 weights (unused by EDAP).
  [[nodiscard]] const LinearCostWeights& weights() const { return weights_; }
  /// "linear" or "EDAP".
  [[nodiscard]] const char* name() const {
    return kind_ == Kind::kLinear ? "linear" : "EDAP";
  }

  /// Calls `f` with this cost's lane form, Linear or Edap, so a caller that
  /// is a template on the form picks its instantiation once.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    if (kind_ == Kind::kEdap) return f(Edap{});
    return f(Linear{weights_});
  }

  [[nodiscard]] double operator()(const CostMetrics& m) const {
    return visit([&m](auto form) {
      return form(m.latency_ms, m.energy_mj, m.area_mm2);
    });
  }

 private:
  HwCost(Kind kind, LinearCostWeights w) : kind_(kind), weights_(w) {}
  friend HwCost linear_cost(LinearCostWeights w);
  friend HwCost edap_cost();

  Kind kind_;
  LinearCostWeights weights_;
};

/// Eq. 3 linear combination. Throws std::invalid_argument on a negative or
/// non-finite weight, which would break the HwCost contract.
inline HwCost linear_cost(LinearCostWeights w) {
  for (const double lambda : {w.lambda_l, w.lambda_e, w.lambda_a}) {
    if (!std::isfinite(lambda) || lambda < 0.0) {
      throw std::invalid_argument(
          "linear_cost: weights must be finite and non-negative");
    }
  }
  return HwCost(HwCost::Kind::kLinear, w);
}

/// Eq. 4 energy-delay-area product (hyper-parameter free, unitless).
inline HwCost edap_cost() { return HwCost(HwCost::Kind::kEdap, {}); }

}  // namespace dance::accel

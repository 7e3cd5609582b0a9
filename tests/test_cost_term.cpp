// The differentiable Cost_HW term (search/cost_term.h) must agree with the
// scalar cost functions used for exact hardware generation (Eq. 3 linear,
// Eq. 4 EDAP): a mismatch would mean the gradient search optimizes a
// different objective than the generator selecting the final accelerator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "search/cost_term.h"
#include "search/warmup.h"
#include "testing/property.h"
#include "util/rng.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;
using tensor::Tensor;
using tensor::Variable;

Tensor metrics_tensor(double lat, double energy, double area) {
  Tensor t({1, 3});
  t[0] = static_cast<float>(lat);
  t[1] = static_cast<float>(energy);
  t[2] = static_cast<float>(area);
  return t;
}

struct MetricsCase {
  double lat, energy, area;
  std::string show() const {
    return "Metrics(lat=" + std::to_string(lat) +
           " energy=" + std::to_string(energy) +
           " area=" + std::to_string(area) + ")";
  }
};

testing_::Generator<MetricsCase> metrics_gen() {
  testing_::Generator<MetricsCase> gen;
  gen.sample = [](util::Rng& rng) {
    // Log-uniform over the realistic metric magnitudes (sub-ms .. seconds,
    // and similar spreads for energy/area).
    const auto log_uniform = [&rng](float lo, float hi) {
      return std::pow(10.0, static_cast<double>(rng.uniform(lo, hi)));
    };
    return MetricsCase{log_uniform(-3.0F, 1.5F), log_uniform(-3.0F, 1.5F),
                       log_uniform(-1.0F, 2.0F)};
  };
  gen.show = [](const MetricsCase& m) { return m.show(); };
  return gen;
}

/// The Eq. 3 variable against the scalar HwCost on the same float-rounded
/// metrics; empty when they agree at float precision.
std::string linear_mismatch(const MetricsCase& m,
                            const accel::LinearCostWeights& w) {
  const accel::HwCost cost = accel::linear_cost(w);
  const Variable mv(metrics_tensor(m.lat, m.energy, m.area));
  const double var_cost =
      static_cast<double>(search::hw_cost_variable(mv, cost).value()[0]);

  accel::CostMetrics cm;
  cm.latency_ms = static_cast<double>(static_cast<float>(m.lat));
  cm.energy_mj = static_cast<double>(static_cast<float>(m.energy));
  cm.area_mm2 = static_cast<double>(static_cast<float>(m.area));
  const double fn_cost = cost(cm);
  // The variable path computes in float32; compare at float precision.
  if (std::abs(var_cost - fn_cost) > 1e-5 * (1.0 + std::abs(fn_cost))) {
    return "linear cost diverged: variable " + std::to_string(var_cost) +
           " vs scalar " + std::to_string(fn_cost);
  }
  return "";
}

struct LinearCase {
  MetricsCase m;
  accel::LinearCostWeights w;
};

TEST(CostTerm, LinearVariableMatchesScalarCost) {
  // A fixed case with non-default weights, checked against the hand sum.
  const MetricsCase fixed{2.0, 3.0, 4.0};
  const accel::LinearCostWeights fixed_w{1.0, 2.0, 0.5};
  EXPECT_EQ(linear_mismatch(fixed, fixed_w), "");
  const Variable fixed_v(metrics_tensor(2.0, 3.0, 4.0));
  EXPECT_NEAR(search::hw_cost_variable(fixed_v, accel::linear_cost(fixed_w))
                  .value()[0],
              1.0 * 2.0 + 2.0 * 3.0 + 0.5 * 4.0, 1e-5);

  // Random non-negative weights, each 0 a third of the time.
  testing_::Generator<LinearCase> gen;
  gen.sample = [metrics = metrics_gen()](util::Rng& rng) {
    const auto weight = [&rng] {
      return rng.randint(0, 2) == 0
                 ? 0.0
                 : static_cast<double>(rng.uniform(0.0F, 10.0F));
    };
    LinearCase c{metrics.sample(rng), {}};
    c.w = {weight(), weight(), weight()};
    return c;
  };
  gen.show = [](const LinearCase& c) {
    return c.m.show() + " weights " + std::to_string(c.w.lambda_l) + "," +
           std::to_string(c.w.lambda_e) + "," + std::to_string(c.w.lambda_a);
  };
  const auto result = testing_::check<LinearCase>(
      "Eq. 3 variable/scalar consistency", gen,
      [](const LinearCase& c, util::Rng&) {
        return linear_mismatch(c.m, c.w);
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(CostTerm, EdapVariableMatchesScalarCost) {
  const auto result = testing_::check<MetricsCase>(
      "Eq. 4 variable/scalar consistency", metrics_gen(),
      [](const MetricsCase& m, util::Rng&) -> std::string {
        const Variable mv(metrics_tensor(m.lat, m.energy, m.area));
        const double var_cost = static_cast<double>(
            search::hw_cost_variable(mv, accel::edap_cost()).value()[0]);

        accel::CostMetrics cm;
        cm.latency_ms = static_cast<double>(static_cast<float>(m.lat));
        cm.energy_mj = static_cast<double>(static_cast<float>(m.energy));
        cm.area_mm2 = static_cast<double>(static_cast<float>(m.area));
        const double fn_cost = accel::edap_cost()(cm);
        if (std::abs(var_cost - fn_cost) > 1e-4 * (1.0 + std::abs(fn_cost))) {
          return "EDAP cost diverged: variable " + std::to_string(var_cost) +
                 " vs scalar " + std::to_string(fn_cost);
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(CostTerm, LinearGradientIsTheWeights) {
  // d(Cost)/d(metrics) for Eq. 3 is exactly (lambda_l, lambda_e, lambda_a).
  const accel::LinearCostWeights w;
  Variable metrics(metrics_tensor(1.5, 2.5, 3.5), /*requires_grad=*/true);
  search::hw_cost_variable(metrics, accel::linear_cost(w)).backward();
  EXPECT_NEAR(metrics.grad()[0], static_cast<float>(w.lambda_l), 1e-6);
  EXPECT_NEAR(metrics.grad()[1], static_cast<float>(w.lambda_e), 1e-6);
  EXPECT_NEAR(metrics.grad()[2], static_cast<float>(w.lambda_a), 1e-6);
}

TEST(CostTerm, EdapGradientIsTheProductRule) {
  // d(L*E*A)/dL = E*A, etc. This is the gradient that steers the
  // architecture away from expensive designs in Eq. 1.
  Variable metrics(metrics_tensor(2.0, 3.0, 5.0), /*requires_grad=*/true);
  search::hw_cost_variable(metrics, accel::edap_cost()).backward();
  EXPECT_NEAR(metrics.grad()[0], 15.0F, 1e-4);  // E*A
  EXPECT_NEAR(metrics.grad()[1], 10.0F, 1e-4);  // L*A
  EXPECT_NEAR(metrics.grad()[2], 6.0F, 1e-4);   // L*E
}

TEST(CostTerm, ToStringNamesBothKinds) {
  EXPECT_STREQ(accel::linear_cost().name(), "linear");
  EXPECT_STREQ(accel::edap_cost().name(), "EDAP");
}

// --- LambdaWarmup edge-case audit ------------------------------------------
// Regressions pinned table-style: negative warmup_epochs used to shift the
// ramp into negative epochs (and `epoch - warmup_epochs` overflowed for
// epochs near INT_MAX — signed UB the UBSan job would trip on); down-ramps
// (initial > target) are a supported schedule, not an accident.

TEST(CostTerm, LambdaWarmupEdgeCaseTable) {
  struct Case {
    const char* name;
    float initial, target;
    int warmup, ramp;
    int epoch;
    float expected;
  };
  const Case cases[] = {
      // Negative warmup behaves exactly like warmup 0.
      {"negative warmup, epoch 0", 0.0F, 1.0F, -5, 4, 0, 0.0F},
      {"negative warmup, mid-ramp", 0.0F, 1.0F, -5, 4, 2, 0.5F},
      {"negative warmup, past ramp", 0.0F, 1.0F, -5, 4, 10, 1.0F},
      // Epochs far past the ramp end clamp to the target — including
      // INT_MAX, which used to overflow the ramp-progress subtraction.
      {"INT_MAX epoch", 0.1F, 0.9F, 3, 5, std::numeric_limits<int>::max(),
       0.9F},
      {"INT_MAX epoch, negative warmup", 0.0F, 2.0F, -1, 2,
       std::numeric_limits<int>::max(), 2.0F},
      // Down-ramp: initial > target anneals monotonically down.
      {"down-ramp start", 2.0F, 0.5F, 2, 3, 1, 2.0F},
      {"down-ramp mid", 2.0F, 0.5F, 2, 3, 4, 1.0F},
      {"down-ramp end", 2.0F, 0.5F, 2, 3, 5, 0.5F},
      {"down-ramp far past end", 2.0F, 0.5F, 2, 3, 1000, 0.5F},
      // ramp < 1 behaves like a one-epoch jump.
      {"zero ramp holds through warmup", 0.2F, 0.9F, 4, 0, 3, 0.2F},
      {"zero ramp jumps after warmup", 0.2F, 0.9F, 4, 0, 5, 0.9F},
      {"negative ramp jumps after warmup", 0.2F, 0.9F, 4, -3, 5, 0.9F},
  };
  for (const Case& c : cases) {
    const search::LambdaWarmup w(c.initial, c.target, c.warmup, c.ramp);
    EXPECT_FLOAT_EQ(w.value(c.epoch), c.expected) << c.name;
  }
}

}  // namespace

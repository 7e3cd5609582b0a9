#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "accel/cost_function.h"
#include "accel/cost_model.h"

namespace {

using namespace dance::accel;

ConvShape standard_conv() {
  // 32x32x64 -> 64 channels, 3x3.
  return ConvShape{1, 64, 64, 32, 32, 3, 3, 1, 1};
}

ConvShape depthwise_conv() {
  return ConvShape{1, 96, 96, 16, 16, 3, 3, 1, 96};
}

TEST(ConvShape, MacsAndVolumes) {
  const ConvShape s = standard_conv();
  EXPECT_EQ(s.macs(), 1LL * 64 * 64 * 32 * 32 * 9);
  EXPECT_EQ(s.weight_volume(), 64LL * 64 * 9);
  EXPECT_EQ(s.input_volume(), 64LL * 32 * 32);
  EXPECT_EQ(s.output_volume(), 64LL * 32 * 32);
}

TEST(ConvShape, DepthwiseGroupsReduceMacs) {
  const ConvShape s = depthwise_conv();
  EXPECT_EQ(s.c_per_group(), 1);
  EXPECT_EQ(s.macs(), 96LL * 16 * 16 * 9);
}

TEST(ConvShape, StridedOutputDims) {
  ConvShape s = standard_conv();
  s.stride = 2;
  EXPECT_EQ(s.out_h(), 16);
  s.h = 33;
  EXPECT_EQ(s.out_h(), 17);  // ceil
}

TEST(ConvShape, Validity) {
  EXPECT_TRUE(standard_conv().valid());
  ConvShape bad = standard_conv();
  bad.c = 0;
  EXPECT_FALSE(bad.valid());
  bad = standard_conv();
  bad.groups = 3;  // 64 % 3 != 0
  EXPECT_FALSE(bad.valid());
}

TEST(CostModel, RejectsInvalidInputs) {
  CostModel model;
  ConvShape bad = standard_conv();
  bad.k = -1;
  AcceleratorConfig cfg;
  EXPECT_THROW((void)model.layer_cost(cfg, bad), std::invalid_argument);
  cfg.pe_x = 0;
  EXPECT_THROW((void)model.layer_cost(cfg, standard_conv()),
               std::invalid_argument);
}

TEST(CostModel, PositiveCosts) {
  CostModel model;
  const AcceleratorConfig cfg{16, 16, 32, Dataflow::kRowStationary};
  const LayerCost lc = model.layer_cost(cfg, standard_conv());
  EXPECT_GT(lc.cycles, 0.0);
  EXPECT_GT(lc.energy_pj, 0.0);
  EXPECT_GT(model.area_mm2(cfg), 0.0);
}

TEST(CostModel, AreaMonotoneInPesAndRf) {
  CostModel model;
  AcceleratorConfig small{8, 8, 4, Dataflow::kRowStationary};
  AcceleratorConfig more_pes{16, 16, 4, Dataflow::kRowStationary};
  AcceleratorConfig more_rf{8, 8, 64, Dataflow::kRowStationary};
  EXPECT_LT(model.area_mm2(small), model.area_mm2(more_pes));
  EXPECT_LT(model.area_mm2(small), model.area_mm2(more_rf));
}

TEST(CostModel, AreaIndependentOfDataflow) {
  CostModel model;
  AcceleratorConfig a{12, 20, 24, Dataflow::kWeightStationary};
  AcceleratorConfig b = a;
  b.dataflow = Dataflow::kOutputStationary;
  EXPECT_DOUBLE_EQ(model.area_mm2(a), model.area_mm2(b));
}

TEST(CostModel, MacEnergyIsLowerBound) {
  CostModel model;
  const AcceleratorConfig cfg{16, 16, 32, Dataflow::kOutputStationary};
  const ConvShape s = standard_conv();
  const LayerCost lc = model.layer_cost(cfg, s);
  EXPECT_GT(lc.energy_pj, static_cast<double>(s.macs()) *
                              model.tech().mac_energy_pj);
}

TEST(CostModel, DepthwiseUnderutilizesWeightStationary) {
  // The separable-convolution-on-TPU effect: WS strands the input-channel
  // dimension of the array for depthwise convs, so its latency per MAC is
  // far worse than RS/OS on the same array.
  CostModel model;
  const AcceleratorConfig ws{16, 16, 32, Dataflow::kWeightStationary};
  const AcceleratorConfig os{16, 16, 32, Dataflow::kOutputStationary};
  const ConvShape dw = depthwise_conv();
  const double ws_cyc = model.layer_cost(ws, dw).cycles;
  const double os_cyc = model.layer_cost(os, dw).cycles;
  EXPECT_GT(ws_cyc, 2.0 * os_cyc);
}

TEST(CostModel, WeightStationaryLikesManyChannels) {
  // For a channel-heavy 1x1 conv, WS should be at least competitive with OS
  // on a wide-X array.
  CostModel model;
  const AcceleratorConfig cfg{24, 24, 32, Dataflow::kWeightStationary};
  const AcceleratorConfig cfg_os{24, 24, 32, Dataflow::kOutputStationary};
  const ConvShape pw{1, 256, 256, 8, 8, 1, 1, 1, 1};
  EXPECT_LT(model.layer_cost(cfg, pw).cycles,
            model.layer_cost(cfg_os, pw).cycles);
}

TEST(CostModel, NetworkCostSumsLayers) {
  CostModel model;
  const AcceleratorConfig cfg{12, 12, 16, Dataflow::kRowStationary};
  const std::vector<ConvShape> one = {standard_conv()};
  const std::vector<ConvShape> two = {standard_conv(), standard_conv()};
  const CostMetrics m1 = model.network_cost(cfg, one);
  const CostMetrics m2 = model.network_cost(cfg, two);
  EXPECT_NEAR(m2.latency_ms, 2.0 * m1.latency_ms, 1e-9);
  EXPECT_NEAR(m2.energy_mj, 2.0 * m1.energy_mj, 1e-9);
  EXPECT_DOUBLE_EQ(m2.area_mm2, m1.area_mm2);  // area is config-only
}

TEST(CostMetrics, EdapIsProduct) {
  CostMetrics m{2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(m.edap(), 24.0);
}

TEST(CostFunction, LinearUsesPaperWeights) {
  const HwCostFn fn = linear_cost();
  const CostMetrics m{1.0, 1.0, 1.0};
  EXPECT_NEAR(fn(m), 4.1 + 4.8 + 1.0, 1e-12);
}

TEST(CostFunction, LinearRejectsNegativeOrNonFiniteWeights) {
  // A negative weight makes the cost fall as a metric grows, which breaks
  // the HwCostFn contract the pruned exact scan relies on.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-1.0, -1e-300, inf, -inf, nan}) {
    EXPECT_THROW((void)linear_cost({.lambda_l = bad}), std::invalid_argument);
    EXPECT_THROW((void)linear_cost({.lambda_e = bad}), std::invalid_argument);
    EXPECT_THROW((void)linear_cost({.lambda_a = bad}), std::invalid_argument);
  }
  const HwCostFn zeros = linear_cost({0.0, -0.0, 0.0});
  EXPECT_EQ(zeros(CostMetrics{1.0, 2.0, 3.0}), 0.0);
}

TEST(CostFunction, EdapMatchesMetric) {
  const HwCostFn fn = edap_cost();
  const CostMetrics m{1.5, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(fn(m), m.edap());
}

/// Property sweep: latency is weakly monotone non-increasing as the PE array
/// grows, for every dataflow (quantization can plateau it, never raise it).
class LatencyMonotone : public ::testing::TestWithParam<Dataflow> {};

TEST_P(LatencyMonotone, MorePesNeverSlower) {
  CostModel model;
  const Dataflow df = GetParam();
  const ConvShape s = standard_conv();
  for (int pe = 8; pe < 24; ++pe) {
    const AcceleratorConfig smaller{pe, 16, 32, df};
    const AcceleratorConfig bigger{pe + 1, 16, 32, df};
    EXPECT_LE(model.layer_cost(bigger, s).cycles,
              model.layer_cost(smaller, s).cycles + 1e-9)
        << "pe_x " << pe << " df " << to_string(df);
    const AcceleratorConfig smaller_y{16, pe, 32, df};
    const AcceleratorConfig bigger_y{16, pe + 1, 32, df};
    EXPECT_LE(model.layer_cost(bigger_y, s).cycles,
              model.layer_cost(smaller_y, s).cycles + 1e-9)
        << "pe_y " << pe << " df " << to_string(df);
  }
}

TEST_P(LatencyMonotone, BiggerRfNeverSlower) {
  CostModel model;
  const Dataflow df = GetParam();
  const ConvShape s = standard_conv();
  for (int rf = 4; rf < 64; rf += 4) {
    const AcceleratorConfig smaller{16, 16, rf, df};
    const AcceleratorConfig bigger{16, 16, rf + 4, df};
    EXPECT_LE(model.layer_cost(bigger, s).cycles,
              model.layer_cost(smaller, s).cycles + 1e-9)
        << "rf " << rf << " df " << to_string(df);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDataflows, LatencyMonotone,
                         ::testing::Values(Dataflow::kWeightStationary,
                                           Dataflow::kOutputStationary,
                                           Dataflow::kRowStationary));

}  // namespace

namespace {

using namespace dance;

TEST(CostBreakdown, TotalsAgreeWithLayerCost) {
  accel::CostModel model;
  const accel::ConvShape s{1, 64, 64, 32, 32, 3, 3, 1, 1};
  for (auto df : accel::kAllDataflows) {
    const accel::AcceleratorConfig cfg{12, 20, 24, df};
    const auto b = model.explain(cfg, s);
    const auto lc = model.layer_cost(cfg, s);
    EXPECT_DOUBLE_EQ(b.total_cycles(), lc.cycles);
    EXPECT_DOUBLE_EQ(b.total_energy_pj(), lc.energy_pj);
    // Components are non-negative and the bottleneck label is consistent.
    EXPECT_GE(b.mac_pj, 0.0);
    EXPECT_GE(b.static_pj, 0.0);
    const std::string bn = b.bottleneck();
    if (bn == "compute") {
      EXPECT_DOUBLE_EQ(b.total_cycles(), b.compute_cycles);
    } else if (bn == "gb") {
      EXPECT_DOUBLE_EQ(b.total_cycles(), b.gb_cycles);
    } else {
      EXPECT_DOUBLE_EQ(b.total_cycles(), b.dram_cycles);
    }
  }
}

TEST(CostBreakdown, MacEnergyMatchesMacCount) {
  accel::CostModel model;
  const accel::ConvShape s{1, 16, 8, 8, 8, 3, 3, 1, 1};
  const accel::AcceleratorConfig cfg{8, 8, 16, accel::Dataflow::kRowStationary};
  const auto b = model.explain(cfg, s);
  EXPECT_DOUBLE_EQ(b.mac_pj,
                   static_cast<double>(s.macs()) * model.tech().mac_energy_pj);
  EXPECT_DOUBLE_EQ(b.rf_accesses, 3.0 * static_cast<double>(s.macs()));
}

}  // namespace

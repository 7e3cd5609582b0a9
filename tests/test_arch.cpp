#include <gtest/gtest.h>

#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "arch/ops.h"
#include "arch/space.h"

namespace {

using namespace dance;
using namespace dance::arch;

TEST(CandidateOps, KernelAndExpandTables) {
  EXPECT_EQ(kernel_size(CandidateOp::kMbConv3x3E3), 3);
  EXPECT_EQ(kernel_size(CandidateOp::kMbConv7x7E6), 7);
  EXPECT_EQ(expand_ratio(CandidateOp::kMbConv5x5E3), 3);
  EXPECT_EQ(expand_ratio(CandidateOp::kMbConv5x5E6), 6);
  EXPECT_TRUE(is_zero(CandidateOp::kZero));
  EXPECT_FALSE(is_zero(CandidateOp::kMbConv3x3E3));
  EXPECT_EQ(to_string(CandidateOp::kMbConv7x7E3), "MBConv7x7_e3");
}

TEST(Backbone, Cifar10Structure) {
  const BackboneSpec spec = cifar10_backbone();
  EXPECT_EQ(spec.layers.size(), 13U);          // 13 layers (§4.1)
  EXPECT_EQ(spec.num_searchable(), 9);         // 9 searchable middle layers
  EXPECT_EQ(spec.input_resolution, 32);
  // Channels rise every three searchable layers.
  const auto pos = spec.searchable_positions();
  ASSERT_EQ(pos.size(), 9U);
  const int c0 = spec.layers[static_cast<std::size_t>(pos[0])].out_channels;
  const int c3 = spec.layers[static_cast<std::size_t>(pos[3])].out_channels;
  const int c6 = spec.layers[static_cast<std::size_t>(pos[6])].out_channels;
  EXPECT_LT(c0, c3);
  EXPECT_LT(c3, c6);
  // Resolution is consistent: each layer's input dims follow the strides.
  int h = 32;
  for (const auto& l : spec.layers) {
    EXPECT_EQ(l.in_h, h);
    h = (h + l.stride - 1) / l.stride;
  }
}

TEST(Backbone, ImagenetIsBigger) {
  const BackboneSpec c = cifar10_backbone();
  const BackboneSpec i = imagenet_backbone();
  EXPECT_EQ(i.layers.size(), 13U);
  EXPECT_EQ(i.num_searchable(), 9);
  EXPECT_GT(i.input_resolution, c.input_resolution);
  EXPECT_GT(i.layers.back().out_channels, c.layers.back().out_channels);
}

TEST(ArchSpace, EncodingWidthAndRoundTrip) {
  ArchSpace space(cifar10_backbone());
  EXPECT_EQ(space.encoding_width(), 9 * kNumCandidateOps);
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Architecture a = space.random(rng);
    const auto enc = space.encode(a);
    EXPECT_EQ(space.decode(enc), a);
    float sum = 0.0F;
    for (float v : enc) sum += v;
    EXPECT_FLOAT_EQ(sum, 9.0F);  // one-hot per slot
  }
}

TEST(ArchSpace, ValidateRejectsWrongLength) {
  ArchSpace space(cifar10_backbone());
  EXPECT_THROW(space.encode(Architecture{CandidateOp::kZero}),
               std::invalid_argument);
}

TEST(Lowering, MbConvTriplet) {
  LayerSpec l;
  l.in_channels = 16;
  l.out_channels = 24;
  l.in_h = l.in_w = 32;
  l.stride = 2;
  const auto shapes = lower_layer(l, 1, CandidateOp::kMbConv5x5E6);
  ASSERT_EQ(shapes.size(), 3U);
  // expand 1x1: 16 -> 96
  EXPECT_EQ(shapes[0].c, 16);
  EXPECT_EQ(shapes[0].k, 96);
  EXPECT_EQ(shapes[0].r, 1);
  // depthwise 5x5, stride 2, groups = 96
  EXPECT_EQ(shapes[1].groups, 96);
  EXPECT_EQ(shapes[1].r, 5);
  EXPECT_EQ(shapes[1].stride, 2);
  // project 1x1 at halved resolution
  EXPECT_EQ(shapes[2].k, 24);
  EXPECT_EQ(shapes[2].h, 16);
  for (const auto& s : shapes) EXPECT_TRUE(s.valid());
}

TEST(Lowering, ExpandOneSkipsPointwise) {
  LayerSpec l;
  l.in_channels = 16;
  l.out_channels = 16;
  l.in_h = l.in_w = 8;
  l.fixed_kernel = 3;
  l.fixed_expand = 1;
  const auto shapes = lower_fixed_layer(l, 1);
  EXPECT_EQ(shapes.size(), 2U);  // depthwise + project only
}

TEST(Lowering, ZeroContributesNothing) {
  LayerSpec l;
  l.in_channels = 16;
  l.out_channels = 24;
  l.in_h = l.in_w = 8;
  EXPECT_TRUE(lower_layer(l, 1, CandidateOp::kZero).empty());
}

TEST(ArchSpace, MacsOrderingMatchesCapacity) {
  ArchSpace space(cifar10_backbone());
  const Architecture small(9, CandidateOp::kMbConv3x3E3);
  const Architecture big(9, CandidateOp::kMbConv7x7E6);
  const Architecture zero(9, CandidateOp::kZero);
  EXPECT_LT(space.macs(zero), space.macs(small));
  EXPECT_LT(space.macs(small), space.macs(big));
  EXPECT_GT(space.macs(zero), 0);  // fixed stem/tail still cost MACs
}

TEST(CostTable, MatchesDirectCostModel) {
  // The LUT must be exactly equivalent to running the cost model directly.
  ArchSpace arch_space(cifar10_backbone());
  hwgen::HwSearchSpace hw_space(
      {.pe_min = 8, .pe_max = 10, .rf_min = 16, .rf_max = 32, .rf_step = 16});
  accel::CostModel model;
  CostTable table(arch_space, hw_space, model);

  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const Architecture a = arch_space.random(rng);
    const auto layers = arch_space.lower(a);
    for (std::size_t ci = 0; ci < hw_space.size(); ci += 5) {
      const accel::CostMetrics direct =
          model.network_cost(hw_space.config_at(ci), layers);
      const accel::CostMetrics lut = table.metrics(ci, a);
      EXPECT_NEAR(lut.latency_ms, direct.latency_ms, 1e-9 * direct.latency_ms);
      EXPECT_NEAR(lut.energy_mj, direct.energy_mj, 1e-9 * direct.energy_mj);
      EXPECT_DOUBLE_EQ(lut.area_mm2, direct.area_mm2);
    }
  }
}

TEST(CostTable, OptimalMatchesExhaustive) {
  ArchSpace arch_space(cifar10_backbone());
  hwgen::HwSearchSpace hw_space(
      {.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32, .rf_step = 8});
  accel::CostModel model;
  CostTable table(arch_space, hw_space, model);
  hwgen::ExhaustiveSearch exact(hw_space, model);

  util::Rng rng(11);
  const Architecture a = arch_space.random(rng);
  const auto layers = arch_space.lower(a);
  const auto cost_fn = accel::edap_cost();
  const auto via_table = table.optimal(a, cost_fn);
  const auto via_direct = exact.run(layers, cost_fn);
  EXPECT_EQ(via_table.config, via_direct.config);
  EXPECT_NEAR(via_table.cost, via_direct.cost, 1e-9 * via_direct.cost);
}

TEST(CostTable, ZeroHeavyArchIsCheaper) {
  ArchSpace arch_space(cifar10_backbone());
  hwgen::HwSearchSpace hw_space(
      {.pe_min = 12, .pe_max = 12, .rf_min = 32, .rf_max = 32, .rf_step = 4});
  accel::CostModel model;
  CostTable table(arch_space, hw_space, model);
  const Architecture zero(9, CandidateOp::kZero);
  const Architecture big(9, CandidateOp::kMbConv7x7E6);
  const auto mz = table.metrics(0, zero);
  const auto mb = table.metrics(0, big);
  EXPECT_LT(mz.latency_ms, mb.latency_ms);
  EXPECT_LT(mz.energy_mj, mb.energy_mj);
  EXPECT_DOUBLE_EQ(mz.area_mm2, mb.area_mm2);
}

}  // namespace

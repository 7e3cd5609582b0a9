#include <gtest/gtest.h>

#include <limits>

#include "accel/cost_function.h"
#include "hwgen/exhaustive.h"
#include "hwgen/pareto.h"
#include "hwgen/search_space.h"

namespace {

using namespace dance;
using namespace dance::hwgen;

std::vector<accel::ConvShape> tiny_network() {
  return {
      accel::ConvShape{1, 32, 16, 16, 16, 3, 3, 1, 1},
      accel::ConvShape{1, 64, 64, 8, 8, 3, 3, 1, 64},  // depthwise
      accel::ConvShape{1, 64, 32, 8, 8, 1, 1, 1, 1},
  };
}

TEST(HwSearchSpace, PaperDefaults) {
  HwSearchSpace space;
  EXPECT_EQ(space.num_pe_choices(), 17);   // 8..24
  EXPECT_EQ(space.num_rf_choices(), 16);   // 4,8,...,64
  EXPECT_EQ(space.num_dataflow_choices(), 3);
  EXPECT_EQ(space.size(), 17U * 17U * 16U * 3U);
  EXPECT_EQ(space.encoding_width(), 17 + 17 + 16 + 3);
}

TEST(HwSearchSpace, IndexRoundTripAll) {
  HwSearchSpace space;
  for (std::size_t i = 0; i < space.size(); i += 7) {
    const accel::AcceleratorConfig c = space.config_at(i);
    EXPECT_EQ(space.index_of(c), i);
  }
}

TEST(HwSearchSpace, ValueIndexRoundTrip) {
  HwSearchSpace space;
  for (int pe = 8; pe <= 24; ++pe) EXPECT_EQ(space.pe_value(space.pe_index(pe)), pe);
  for (int rf = 4; rf <= 64; rf += 4) EXPECT_EQ(space.rf_value(space.rf_index(rf)), rf);
  for (auto df : accel::kAllDataflows) {
    EXPECT_EQ(space.dataflow_value(space.dataflow_index(df)), df);
  }
}

TEST(HwSearchSpace, OutOfRangeThrows) {
  HwSearchSpace space;
  EXPECT_THROW((void)space.pe_index(7), std::out_of_range);
  EXPECT_THROW((void)space.pe_index(25), std::out_of_range);
  // 5 is not a multiple of the rf step.
  EXPECT_THROW((void)space.rf_index(5), std::out_of_range);
  EXPECT_THROW((void)space.config_at(space.size()), std::out_of_range);
}

TEST(HwSearchSpace, EncodeIsFourHot) {
  HwSearchSpace space;
  const accel::AcceleratorConfig c{10, 22, 36, accel::Dataflow::kOutputStationary};
  const auto enc = space.encode(c);
  ASSERT_EQ(static_cast<int>(enc.size()), space.encoding_width());
  float sum = 0.0F;
  for (float v : enc) {
    EXPECT_TRUE(v == 0.0F || v == 1.0F);
    sum += v;
  }
  EXPECT_FLOAT_EQ(sum, 4.0F);  // one per head
  EXPECT_FLOAT_EQ(enc[static_cast<std::size_t>(space.pe_index(10))], 1.0F);
}

TEST(HwSearchSpace, CustomRanges) {
  HwSearchSpace space({.pe_min = 2, .pe_max = 4, .rf_min = 8, .rf_max = 16,
                       .rf_step = 8});
  EXPECT_EQ(space.num_pe_choices(), 3);
  EXPECT_EQ(space.num_rf_choices(), 2);
  EXPECT_EQ(space.size(), 3U * 3U * 2U * 3U);
  EXPECT_THROW(HwSearchSpace({.pe_min = 5, .pe_max = 4}), std::invalid_argument);
}

TEST(ExhaustiveSearch, FindsGlobalMinimum) {
  // Small space so a brute-force cross-check stays fast.
  HwSearchSpace space({.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32,
                       .rf_step = 8});
  accel::CostModel model;
  ExhaustiveSearch search(space, model);
  const auto layers = tiny_network();
  const auto cost_fn = accel::edap_cost();
  const HwSearchResult best = search.run(layers, cost_fn);

  double brute = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < space.size(); ++i) {
    brute = std::min(brute, cost_fn(model.network_cost(space.config_at(i), layers)));
  }
  EXPECT_DOUBLE_EQ(best.cost, brute);
  EXPECT_DOUBLE_EQ(cost_fn(best.metrics), best.cost);
}

TEST(ExhaustiveSearch, PrecomputedMatchesDirect) {
  HwSearchSpace space({.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16,
                       .rf_step = 8});
  accel::CostModel model;
  ExhaustiveSearch search(space, model);
  const auto layers = tiny_network();
  const auto all = search.evaluate_all(layers);
  const auto cost_fn = accel::linear_cost();
  const HwSearchResult direct = search.run(layers, cost_fn);
  const HwSearchResult pre = search.run_precomputed(all, cost_fn);
  EXPECT_EQ(direct.config, pre.config);
  EXPECT_DOUBLE_EQ(direct.cost, pre.cost);
}

TEST(ExhaustiveSearch, EmptyNetworkThrows) {
  HwSearchSpace space;
  accel::CostModel model;
  ExhaustiveSearch search(space, model);
  EXPECT_THROW((void)search.run({}, accel::edap_cost()), std::invalid_argument);
}

TEST(Pareto, DominatesSemantics) {
  accel::CostMetrics a{1.0, 1.0, 1.0};
  accel::CostMetrics b{2.0, 1.0, 1.0};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, a));  // equal does not dominate
}

TEST(Pareto, FrontIsMutuallyNonDominated) {
  HwSearchSpace space({.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32,
                       .rf_step = 8});
  accel::CostModel model;
  ExhaustiveSearch search(space, model);
  const auto metrics = search.evaluate_all(tiny_network());
  const auto front = pareto_front(space, metrics);
  ASSERT_FALSE(front.empty());
  for (const auto& p : front) {
    for (const auto& q : front) {
      EXPECT_FALSE(dominates(p.metrics, q.metrics) &&
                   !(p.config == q.config));
    }
  }
  // The EDAP optimum must sit on the front.
  const HwSearchResult best = search.run(tiny_network(), accel::edap_cost());
  bool found = false;
  for (const auto& p : front) {
    if (p.config == best.config) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace

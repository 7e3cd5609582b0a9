#include <gtest/gtest.h>

#include <limits>

#include "search/design_points.h"

namespace {

using namespace dance;

search::SearchOutcome make(double acc, double latency) {
  search::SearchOutcome o;
  o.val_accuracy_pct = acc;
  o.metrics = accel::CostMetrics{latency, 1.0, 1.0};
  return o;
}

/// Latency only: Eq. 3 with every other weight 0.
const accel::HwCost kLatency = accel::linear_cost({1.0, 0.0, 0.0});

TEST(DesignPoints, PicksMostAccurateAsA) {
  const std::vector<search::SearchOutcome> sweep = {
      make(90.0, 5.0), make(94.0, 8.0), make(92.0, 3.0)};
  const auto p = search::select_design_points(sweep, kLatency, 1.0);
  EXPECT_DOUBLE_EQ(p.accuracy_oriented.val_accuracy_pct, 94.0);
}

TEST(DesignPoints, PicksCheapestWithinBudgetAsB) {
  const std::vector<search::SearchOutcome> sweep = {
      make(94.0, 8.0), make(93.5, 3.0), make(90.0, 1.0)};
  const auto p = search::select_design_points(sweep, kLatency, 1.0);
  // 93.5 is within 1%p of 94 and cheaper; 90.0 is cheaper still but over
  // budget.
  EXPECT_DOUBLE_EQ(p.efficiency_oriented.val_accuracy_pct, 93.5);
  EXPECT_DOUBLE_EQ(p.efficiency_oriented.metrics.latency_ms, 3.0);
}

TEST(DesignPoints, BFallsBackToAWhenNothingCheaper) {
  const std::vector<search::SearchOutcome> sweep = {
      make(94.0, 2.0), make(93.9, 5.0)};
  const auto p = search::select_design_points(sweep, kLatency, 1.0);
  EXPECT_DOUBLE_EQ(p.efficiency_oriented.metrics.latency_ms, 2.0);
}

TEST(DesignPoints, WiderBudgetUnlocksCheaperB) {
  const std::vector<search::SearchOutcome> sweep = {
      make(94.0, 8.0), make(90.0, 1.0)};
  const auto tight = search::select_design_points(sweep, kLatency, 1.0);
  const auto loose = search::select_design_points(sweep, kLatency, 5.0);
  EXPECT_DOUBLE_EQ(tight.efficiency_oriented.metrics.latency_ms, 8.0);
  EXPECT_DOUBLE_EQ(loose.efficiency_oriented.metrics.latency_ms, 1.0);
}

TEST(DesignPoints, EmptySweepThrows) {
  EXPECT_THROW(search::select_design_points({}, kLatency), std::invalid_argument);
}

// --- Non-finite outcome regressions ----------------------------------------
// A sweep entry whose retrain diverged (NaN accuracy) or whose metrics are
// poisoned used to propagate silently: NaN compares false against every
// candidate, so whichever outcome the scan happened to visit first "won".
// Non-finite entries are now skipped; an all-non-finite sweep throws.

TEST(DesignPoints, NanAccuracySeedDoesNotWinA) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<search::SearchOutcome> sweep = {make(nan, 5.0),
                                              make(91.0, 6.0)};
  const auto p = search::select_design_points(sweep, kLatency, 1.0);
  EXPECT_DOUBLE_EQ(p.accuracy_oriented.val_accuracy_pct, 91.0);
}

TEST(DesignPoints, NanMetricsDoNotPoisonB) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<search::SearchOutcome> sweep = {make(94.0, 8.0),
                                              make(93.8, nan),
                                              make(93.5, 3.0)};
  const auto p = search::select_design_points(sweep, kLatency, 1.0);
  // The NaN-latency entry is within the accuracy budget but must not be
  // selected (NaN cost compares false against everything).
  EXPECT_DOUBLE_EQ(p.efficiency_oriented.metrics.latency_ms, 3.0);
}

TEST(DesignPoints, InfiniteCostOutcomeIsSkipped) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<search::SearchOutcome> sweep = {make(95.0, inf),
                                              make(92.0, 4.0)};
  const auto p = search::select_design_points(sweep, kLatency, 5.0);
  EXPECT_DOUBLE_EQ(p.accuracy_oriented.val_accuracy_pct, 92.0);
  EXPECT_DOUBLE_EQ(p.efficiency_oriented.metrics.latency_ms, 4.0);
}

TEST(DesignPoints, AllNonFiniteThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<search::SearchOutcome> sweep = {make(nan, 1.0),
                                                    make(90.0, nan)};
  EXPECT_THROW(search::select_design_points(sweep, kLatency),
               std::invalid_argument);
}

}  // namespace

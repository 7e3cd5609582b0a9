#pragma once

#include <span>

#include "accel/cost_function.h"
#include "search/outcome.h"

namespace dance::search {

/// The two design points the paper reports per cost function (§4.3):
/// -A, the most accurate design of a lambda2 sweep, and -B, the cheapest
/// design whose accuracy stays within `accuracy_budget_pct` of -A.
struct DesignPoints {
  SearchOutcome accuracy_oriented;   ///< "-A"
  SearchOutcome efficiency_oriented; ///< "-B"
};

/// Select -A and -B from a sweep of search outcomes. Throws on an empty
/// sweep. When no design is cheaper within the budget, -B equals -A.
/// Outcomes whose accuracy, metrics or cost are non-finite are skipped (they
/// would otherwise poison the comparisons — NaN never orders); when *every*
/// outcome is non-finite the sweep is unusable and std::invalid_argument is
/// thrown.
[[nodiscard]] DesignPoints select_design_points(
    std::span<const SearchOutcome> sweep, const accel::HwCost& cost_fn,
    double accuracy_budget_pct = 1.0);

}  // namespace dance::search

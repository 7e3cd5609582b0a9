#include "search/design_points.h"

#include <cmath>
#include <stdexcept>

namespace dance::search {

namespace {

/// A sweep entry is usable only when every quantity the selection compares
/// is finite. NaN poisons comparisons silently (`NaN > x` and `NaN < x` are
/// both false), so a single non-finite outcome could win -A by being the
/// seed of the scan, or block -B by making its cost comparison always false.
bool selectable(const SearchOutcome& o, const accel::HwCost& cost_fn) {
  return std::isfinite(o.val_accuracy_pct) &&
         std::isfinite(o.metrics.latency_ms) &&
         std::isfinite(o.metrics.energy_mj) &&
         std::isfinite(o.metrics.area_mm2) && std::isfinite(cost_fn(o.metrics));
}

}  // namespace

DesignPoints select_design_points(std::span<const SearchOutcome> sweep,
                                  const accel::HwCost& cost_fn,
                                  double accuracy_budget_pct) {
  if (sweep.empty()) {
    throw std::invalid_argument("select_design_points: empty sweep");
  }
  // Skip-or-throw on non-finite inputs: outcomes with NaN/inf accuracy,
  // metrics or cost are excluded from both selections; when nothing finite
  // remains the sweep is unusable and we fail loudly instead of returning a
  // poisoned design point.
  const SearchOutcome* a = nullptr;
  for (const auto& o : sweep) {
    if (!selectable(o, cost_fn)) continue;
    if (a == nullptr || o.val_accuracy_pct > a->val_accuracy_pct) a = &o;
  }
  if (a == nullptr) {
    throw std::invalid_argument(
        "select_design_points: no outcome with finite accuracy/metrics/cost");
  }
  const SearchOutcome* b = a;
  for (const auto& o : sweep) {
    if (!selectable(o, cost_fn)) continue;
    if (o.val_accuracy_pct + accuracy_budget_pct >= a->val_accuracy_pct &&
        cost_fn(o.metrics) < cost_fn(b->metrics)) {
      b = &o;
    }
  }
  return DesignPoints{*a, *b};
}

}  // namespace dance::search

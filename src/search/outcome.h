#pragma once

#include "accel/cost_model.h"
#include "arch/space.h"

namespace dance::search {

/// Result of one co-exploration (or baseline) run, in the shape of a
/// Table 2 / Table 4 row.
struct SearchOutcome {
  arch::Architecture architecture;
  double val_accuracy_pct = 0.0;   ///< from-scratch retrained accuracy
  accel::AcceleratorConfig hardware;
  accel::CostMetrics metrics;      ///< exact metrics on that hardware
  double search_seconds = 0.0;
  int trained_candidates = 1;      ///< networks trained during search
};

}  // namespace dance::search

#include "arch/cost_provider.h"

#include <limits>
#include <stdexcept>

#include "runtime/profiler.h"
#include "runtime/thread_pool.h"

namespace dance::arch {

namespace {
/// Table lookups are cheap; batch plenty of configs per chunk.
constexpr long kTableGrain = 256;
}  // namespace

accel::CostMetrics TableCostProvider::metrics(std::size_t config_index,
                                              const Architecture& a) const {
  arch_space().validate(a);
  if (config_index >= view_.num_configs) {
    throw std::out_of_range("CostProvider::metrics: bad config index");
  }
  double cycles = view_.fixed_cycles[config_index];
  double energy = view_.fixed_energy[config_index];
  for (int slot = 0; slot < view_.slots; ++slot) {
    const int op = static_cast<int>(a[static_cast<std::size_t>(slot)]);
    cycles += view_.choice_cycles[slot_offset(slot, op) + config_index];
    energy += view_.choice_energy[slot_offset(slot, op) + config_index];
  }
  accel::CostMetrics m;
  m.latency_ms = cycles / (view_.clock_ghz * 1e6);
  m.energy_mj = energy * 1e-9;
  m.area_mm2 = view_.area[config_index];
  return m;
}

std::vector<accel::CostMetrics> TableCostProvider::evaluate_all(
    const Architecture& a) const {
  arch_space().validate(a);
  std::vector<accel::CostMetrics> out(view_.num_configs);
  runtime::global_pool().parallel_for(
      0, static_cast<long>(view_.num_configs), kTableGrain,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          out[ci] = metrics(ci, a);
        }
      });
  return out;
}

hwgen::HwSearchResult TableCostProvider::optimal(
    const Architecture& a, const accel::HwCostFn& cost_fn) const {
  DANCE_PROFILE_SCOPE("arch.cost_table.optimal");
  arch_space().validate(a);
  // Parallel cost fill (disjoint writes), serial arg-min: the first index at
  // the minimum wins, exactly like the historical serial scan.
  std::vector<double> costs(view_.num_configs);
  runtime::global_pool().parallel_for(
      0, static_cast<long>(view_.num_configs), kTableGrain,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          costs[ci] = cost_fn(metrics(ci, a));
        }
      });
  std::size_t best_index = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t ci = 0; ci < view_.num_configs; ++ci) {
    if (costs[ci] < best_cost) {
      best_cost = costs[ci];
      best_index = ci;
    }
  }
  return hwgen::HwSearchResult{hw_space().config_at(best_index),
                               metrics(best_index, a), best_cost};
}

}  // namespace dance::arch

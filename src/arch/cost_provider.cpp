#include "arch/cost_provider.h"

#include <array>
#include <limits>
#include <stdexcept>

#include "runtime/profiler.h"
#include "runtime/thread_pool.h"

namespace dance::arch {

namespace {
/// Table lookups are cheap; batch plenty of configs per chunk.
constexpr long kTableGrain = 256;

/// The one place table sums become metrics, so `metrics` and the fused scan
/// in `optimal` produce the same bits.
accel::CostMetrics to_metrics(double cycles, double energy_pj, double area,
                              double clock_ghz) {
  accel::CostMetrics m;
  m.latency_ms = cycles / (clock_ghz * 1e6);
  m.energy_mj = energy_pj * 1e-9;
  m.area_mm2 = area;
  return m;
}
}  // namespace

accel::CostMetrics TableCostProvider::metrics(std::size_t config_index,
                                              const Architecture& a) const {
  arch_space().validate(a);
  if (config_index >= view_.num_configs) {
    throw std::out_of_range("CostProvider::metrics: bad config index");
  }
  return metrics_at(position_[config_index], a);
}

accel::CostMetrics TableCostProvider::metrics_at(std::size_t position,
                                                 const Architecture& a) const {
  double cycles = view_.fixed_cycles[position];
  double energy = view_.fixed_energy[position];
  for (int slot = 0; slot < view_.slots; ++slot) {
    const int op = static_cast<int>(a[static_cast<std::size_t>(slot)]);
    cycles += view_.choice_cycles[slot_offset(slot, op) + position];
    energy += view_.choice_energy[slot_offset(slot, op) + position];
  }
  return to_metrics(cycles, energy, view_.area[position], view_.clock_ghz);
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
          out[ci] = metrics_at(position_[ci], a);
        }
      });
  return out;
}

hwgen::HwSearchResult TableCostProvider::optimal(
    const Architecture& a, const accel::HwCostFn& cost_fn) const {
  DANCE_PROFILE_SCOPE("arch.cost_table.optimal");
  arch_space().validate(a);
  // One pass over the kept prefix, which holds the first minimum of any
  // non-decreasing cost (docs/cost_table.md, "Scan order"). Per position
  // the sums run in the same order as metrics(), so the bits match.
  const std::size_t n = view_.num_kept;
  std::vector<double> cycles(view_.fixed_cycles, view_.fixed_cycles + n);
  std::vector<double> energy(view_.fixed_energy, view_.fixed_energy + n);
  for (int slot = 0; slot < view_.slots; ++slot) {
    const std::size_t off =
        slot_offset(slot, static_cast<int>(a[static_cast<std::size_t>(slot)]));
    const double* slot_cycles = view_.choice_cycles + off;
    const double* slot_energy = view_.choice_energy + off;
    for (std::size_t p = 0; p < n; ++p) {
      cycles[p] += slot_cycles[p];
      energy[p] += slot_energy[p];
    }
  }
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < n; ++p) {
    const double cost = cost_fn(
        to_metrics(cycles[p], energy[p], view_.area[p], view_.clock_ghz));
    if (cost < best_cost) {
      best_cost = cost;
      best = p;
    }
  }
  return hwgen::HwSearchResult{
      hw_space().config_at(view_.order[best]),
      to_metrics(cycles[best], energy[best], view_.area[best], view_.clock_ghz),
      best_cost};
}

std::vector<std::uint8_t> TableCostProvider::pruned_configs(
    const hwgen::HwSearchSpace& hw) const {
  const std::size_t n = view_.num_configs;
  std::vector<const double*> rows{view_.fixed_cycles, view_.fixed_energy,
                                  view_.area};
  const std::size_t choice_rows =
      static_cast<std::size_t>(view_.slots) * kNumCandidateOps;
  for (std::size_t r = 0; r < choice_rows; ++r) {
    rows.push_back(view_.choice_cycles + r * n);
    rows.push_back(view_.choice_energy + r * n);
  }
  // {stride, count} of each axis of HwSearchSpace's flat index:
  // ((pe_x * P + pe_y) * R + rf) * D + dataflow.
  const auto rf = static_cast<std::size_t>(hw.num_rf_choices());
  const auto pe = static_cast<std::size_t>(hw.num_pe_choices());
  const auto df = static_cast<std::size_t>(hw.num_dataflow_choices());
  const std::array<std::array<std::size_t, 2>, 4> axes{
      {{1, df}, {df, rf}, {df * rf, pe}, {df * rf * pe, pe}}};

  std::vector<std::uint8_t> pruned(n, 0);
  runtime::global_pool().parallel_for(
      0, static_cast<long>(n), kTableGrain, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          const std::size_t pi = position_[ci];
          bool dominated = false;
          for (const auto& [stride, count] : axes) {
            const std::size_t steps = (ci / stride) % count;
            for (std::size_t d = 1; d <= steps && !dominated; ++d) {
              const std::size_t pj = position_[ci - d * stride];
              dominated = true;
              for (const double* row : rows) {
                if (!(row[pj] <= row[pi])) {
                  dominated = false;
                  break;
                }
              }
            }
            if (dominated) break;
          }
          pruned[ci] = dominated ? 1 : 0;
        }
      });
  return pruned;
}

std::size_t TableCostProvider::index_positions() {
  const std::size_t n = view_.num_configs;
  constexpr auto kUnset = std::numeric_limits<std::uint32_t>::max();
  position_.assign(n, kUnset);
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t ci = view_.order[p];
    if (ci >= n || position_[ci] != kUnset) return p;
    position_[ci] = static_cast<std::uint32_t>(p);
  }
  return n;
}

}  // namespace dance::arch

#include "arch/cost_table.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "runtime/profiler.h"
#include "runtime/thread_pool.h"

namespace dance::arch {

namespace {
/// Cost-model evaluation per config is expensive; small chunks balance well.
constexpr long kModelGrain = 8;
}  // namespace

CostTable::CostTable(const ArchSpace& arch_space,
                     const hwgen::HwSearchSpace& hw_space,
                     const accel::CostModel& model)
    : arch_space_(arch_space),
      hw_space_(hw_space),
      clock_ghz_(model.tech().clock_ghz) {
  const std::size_t num_configs = hw_space.size();
  if (num_configs > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("CostTable: hardware space too large");
  }
  const int slots = arch_space_.num_searchable();
  fixed_cycles_.assign(num_configs, 0.0);
  fixed_energy_.assign(num_configs, 0.0);
  area_.assign(num_configs, 0.0);
  choice_cycles_.assign(
      static_cast<std::size_t>(slots) * kNumCandidateOps * num_configs, 0.0);
  choice_energy_.assign(choice_cycles_.size(), 0.0);

  // Pre-lower every choice once and flatten all shapes — fixed layers first,
  // then each (slot, op) segment — into one contiguous batch, so each config
  // costs exactly one layer_cost_batch call. Per-segment sums accumulate in
  // the same per-shape order as the historical per-layer loops, so the table
  // is bit-identical to the old build.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<accel::ConvShape> all_shapes(arch_space_.fixed_shapes().begin(),
                                           arch_space_.fixed_shapes().end());
  const std::size_t fixed_count = all_shapes.size();
  std::vector<Segment> segments(static_cast<std::size_t>(slots) *
                                kNumCandidateOps);
  for (int slot = 0; slot < slots; ++slot) {
    for (int op = 0; op < kNumCandidateOps; ++op) {
      const auto shapes = arch_space_.lower_choice(
          slot, kAllCandidateOps[static_cast<std::size_t>(op)]);
      Segment& seg =
          segments[static_cast<std::size_t>(slot) * kNumCandidateOps +
                   static_cast<std::size_t>(op)];
      seg.begin = all_shapes.size();
      all_shapes.insert(all_shapes.end(), shapes.begin(), shapes.end());
      seg.end = all_shapes.size();
    }
  }

  // Wire the base-class view before the sweep: slot_offset() needs
  // num_configs, and the storage pointers are stable from here on (the
  // vectors never reallocate after assign()).
  view_.fixed_cycles = fixed_cycles_.data();
  view_.fixed_energy = fixed_energy_.data();
  view_.choice_cycles = choice_cycles_.data();
  view_.choice_energy = choice_energy_.data();
  view_.area = area_.data();
  view_.num_configs = num_configs;
  view_.slots = slots;
  view_.clock_ghz = clock_ghz_;

  // Every configuration fills its own column of the tables (disjoint writes)
  // and all per-config sums accumulate inside a single lane, so the table is
  // bit-identical to a serial build at any thread count.
  DANCE_PROFILE_SCOPE("arch.cost_table.build");
  runtime::global_pool().parallel_for(
      0, static_cast<long>(num_configs), kModelGrain, [&](long lo, long hi) {
        std::vector<accel::LayerCost> costs(all_shapes.size());
        for (long i = lo; i < hi; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          const accel::AcceleratorConfig config = hw_space_.config_at(ci);
          area_[ci] = model.area_mm2(config);
          model.layer_cost_batch(config, all_shapes, costs);
          for (std::size_t f = 0; f < fixed_count; ++f) {
            fixed_cycles_[ci] += costs[f].cycles;
            fixed_energy_[ci] += costs[f].energy_pj;
          }
          for (int slot = 0; slot < slots; ++slot) {
            for (int op = 0; op < kNumCandidateOps; ++op) {
              const Segment& seg =
                  segments[static_cast<std::size_t>(slot) * kNumCandidateOps +
                           static_cast<std::size_t>(op)];
              double cycles = 0.0;
              double energy = 0.0;
              for (std::size_t s = seg.begin; s < seg.end; ++s) {
                cycles += costs[s].cycles;
                energy += costs[s].energy_pj;
              }
              choice_cycles_[slot_offset(slot, op) + ci] = cycles;
              choice_energy_[slot_offset(slot, op) + ci] = energy;
            }
          }
        }
      });

  // Scan order: kept configs first, then the pruned ones, each ascending.
  // Every array is permuted in place through one row-sized scratch buffer.
  DANCE_PROFILE_SCOPE("arch.cost_table.prune");
  position_.resize(num_configs);
  std::iota(position_.begin(), position_.end(), 0U);
  const std::vector<std::uint8_t> pruned = pruned_configs(hw_space_);
  order_.resize(num_configs);
  std::iota(order_.begin(), order_.end(), 0U);
  const auto kept_end = std::stable_partition(
      order_.begin(), order_.end(),
      [&pruned](std::uint32_t ci) { return pruned[ci] == 0; });
  view_.num_kept = static_cast<std::size_t>(kept_end - order_.begin());
  std::vector<double> scratch(num_configs);
  const auto permute = [&](double* row) {
    std::copy(row, row + num_configs, scratch.begin());
    for (std::size_t p = 0; p < num_configs; ++p) row[p] = scratch[order_[p]];
  };
  permute(fixed_cycles_.data());
  permute(fixed_energy_.data());
  permute(area_.data());
  for (std::size_t off = 0; off < choice_cycles_.size(); off += num_configs) {
    permute(choice_cycles_.data() + off);
    permute(choice_energy_.data() + off);
  }
  view_.order = order_.data();
  (void)index_positions();  // order_ is a permutation by construction

  obs::Registry::global().counter("costtable.builds").inc();
}

CostTable build_cost_table(const ArchSpace& arch_space,
                           const hwgen::HwSearchSpace& hw_space,
                           const accel::CostModel& model) {
  return CostTable(arch_space, hw_space, model);
}

}  // namespace dance::arch

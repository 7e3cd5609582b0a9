#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/cost_function.h"
#include "accel/cost_model.h"
#include "arch/space.h"
#include "hwgen/exhaustive.h"
#include "hwgen/search_space.h"

namespace dance::arch {

/// Abstract source of precomputed per-(slot, op, config) network costs.
///
/// Everything downstream of exhaustive ground truth — `serve::ExactBackend`,
/// the evaluator-dataset generator, the search baselines — programs against
/// this interface, so an in-memory `CostTable` (built from the analytical
/// model at startup) and an `MmapCostTable` (a compiled DCTB-v2 artifact
/// mapped read-only from disk) are interchangeable. Both answer
/// bit-identically for the same underlying table data.
class CostProvider {
 public:
  virtual ~CostProvider() = default;

  /// Network metrics of `a` on configuration `config_index`.
  [[nodiscard]] virtual accel::CostMetrics metrics(
      std::size_t config_index, const Architecture& a) const = 0;

  /// Metrics of `a` on every configuration, in space order.
  [[nodiscard]] virtual std::vector<accel::CostMetrics> evaluate_all(
      const Architecture& a) const = 0;

  /// Exact hardware generation (arg-min over the whole space, Eq. 4): the
  /// first configuration in space order at the minimum cost (strict `<`),
  /// or configuration 0 with cost +inf when no cost is below +inf.
  ///
  /// Contract: `cost_fn` must be non-decreasing in latency, energy and
  /// area (see accel::HwCostFn). Implementations may then skip
  /// configurations that a lower-index configuration dominates, since none
  /// of them can be the first minimum.
  [[nodiscard]] virtual hwgen::HwSearchResult optimal(
      const Architecture& a, const accel::HwCostFn& cost_fn) const = 0;

  [[nodiscard]] virtual const hwgen::HwSearchSpace& hw_space() const = 0;
  [[nodiscard]] virtual const ArchSpace& arch_space() const = 0;
};

/// Shared query implementation over five flat per-config arrays. Derived
/// classes own (or map) the storage and point `view_` at it; every query
/// method reads only through the view, which is what guarantees a
/// `CostTable` and an `MmapCostTable` over the same bytes answer
/// bit-identically — they literally execute the same loads and arithmetic.
///
/// The arrays are stored in *scan order* (docs/cost_table.md): the configs
/// no lower-index config on one of their four hardware axes dominates come
/// first, ascending, and the rest follow, ascending. `optimal` scans only
/// that prefix; `metrics` and `evaluate_all` map through the order and
/// cover the whole space.
class TableCostProvider : public CostProvider {
 public:
  [[nodiscard]] accel::CostMetrics metrics(std::size_t config_index,
                                           const Architecture& a) const override;
  [[nodiscard]] std::vector<accel::CostMetrics> evaluate_all(
      const Architecture& a) const override;
  [[nodiscard]] hwgen::HwSearchResult optimal(
      const Architecture& a, const accel::HwCostFn& cost_fn) const override;

  /// Number of configurations `optimal` scans (the kept prefix).
  [[nodiscard]] std::size_t scan_size() const { return view_.num_kept; }

 protected:
  /// Borrowed pointers into the derived class's storage. Layout:
  /// fixed_cycles/fixed_energy/area are [position]; choice_cycles and
  /// choice_energy are [slot][op][position] flattened via slot_offset().
  /// `order[position]` is the config index stored at that position.
  struct View {
    const double* fixed_cycles = nullptr;
    const double* fixed_energy = nullptr;  ///< pJ
    const double* choice_cycles = nullptr;
    const double* choice_energy = nullptr;  ///< pJ
    const double* area = nullptr;           ///< mm^2
    const std::uint32_t* order = nullptr;   ///< [position] -> config index
    std::size_t num_configs = 0;
    std::size_t num_kept = 0;  ///< length of the scanned prefix
    int slots = 0;
    double clock_ghz = 1.0;
  };

  [[nodiscard]] std::size_t slot_offset(int slot, int op) const {
    return (static_cast<std::size_t>(slot) * kNumCandidateOps +
            static_cast<std::size_t>(op)) *
           view_.num_configs;
  }

  /// `pruned[i]` is 1 when some lower-index config on one of config i's
  /// four `hw` axes is `<=` config i on every table coordinate (fixed
  /// cycles, fixed energy, area and every per-(slot, op) cycles and
  /// energy). Reads through `view_` and `position_`.
  [[nodiscard]] std::vector<std::uint8_t> pruned_configs(
      const hwgen::HwSearchSpace& hw) const;

  /// Fills `position_` as the inverse of `view_.order`. Returns the first
  /// position whose entry is out of range or repeats an earlier one, or
  /// `view_.num_configs` when the order is a permutation.
  std::size_t index_positions();

  View view_{};
  std::vector<std::uint32_t> position_;  ///< [config index] -> position

 private:
  /// metrics() of the config stored at `position`, without validating `a`.
  [[nodiscard]] accel::CostMetrics metrics_at(std::size_t position,
                                              const Architecture& a) const;

  friend std::uint64_t save_cost_table(const TableCostProvider& table,
                                       const std::string& path);
};

}  // namespace dance::arch

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
/// model at startup) and an `MmapCostTable` (a compiled DCTB-v1 artifact
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

  /// Exact hardware generation (arg-min over the whole space, Eq. 4).
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
class TableCostProvider : public CostProvider {
 public:
  [[nodiscard]] accel::CostMetrics metrics(std::size_t config_index,
                                           const Architecture& a) const override;
  [[nodiscard]] std::vector<accel::CostMetrics> evaluate_all(
      const Architecture& a) const override;
  [[nodiscard]] hwgen::HwSearchResult optimal(
      const Architecture& a, const accel::HwCostFn& cost_fn) const override;

 protected:
  /// Borrowed pointers into the derived class's storage. Layout:
  /// fixed_cycles/fixed_energy/area are [config]; choice_cycles and
  /// choice_energy are [slot][op][config] flattened via slot_offset().
  struct View {
    const double* fixed_cycles = nullptr;
    const double* fixed_energy = nullptr;  ///< pJ
    const double* choice_cycles = nullptr;
    const double* choice_energy = nullptr;  ///< pJ
    const double* area = nullptr;           ///< mm^2
    std::size_t num_configs = 0;
    int slots = 0;
    double clock_ghz = 1.0;
  };

  [[nodiscard]] std::size_t slot_offset(int slot, int op) const {
    return (static_cast<std::size_t>(slot) * kNumCandidateOps +
            static_cast<std::size_t>(op)) *
           view_.num_configs;
  }

  View view_{};

  friend std::uint64_t save_cost_table(const TableCostProvider& table,
                                       const std::string& path);
};

}  // namespace dance::arch

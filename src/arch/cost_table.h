#pragma once

#include <cstdint>
#include <vector>

#include "arch/cost_provider.h"

namespace dance::arch {

/// Precomputed per-(slot, candidate-op, hardware-config) layer costs.
///
/// The exhaustive hardware generation tool evaluates every configuration in
/// H for every candidate network; since a backbone position contributes the
/// same convolution shapes for a given op regardless of the rest of the
/// architecture, the (slot, op, config) costs can be tabulated once. An
/// architecture's cost under any config is then a 9-term table sum, which
/// makes exhaustive ground-truth generation for the evaluator training set
/// tractable (DESIGN.md §7). The results are bit-identical to running the
/// cost model directly.
///
/// After the build the arrays are permuted in place into scan order (see
/// TableCostProvider), so `optimal` scans only the configs no lower-index
/// config dominates.
///
/// Queries are inherited from TableCostProvider; a CostTable saved with
/// `save_cost_table` and reloaded as an `MmapCostTable` answers
/// bit-identically (see src/arch/cost_artifact.h).
class CostTable : public TableCostProvider {
 public:
  /// Builds the table by sweeping the whole (slot, op, config) space over
  /// `runtime::global_pool()`, then permutes it into scan order. Holds
  /// references to `arch_space` and `hw_space` (not `model`, which is only
  /// consulted during the build); both must outlive the table.
  CostTable(const ArchSpace& arch_space, const hwgen::HwSearchSpace& hw_space,
            const accel::CostModel& model);

  // Moving is safe (the vectors keep their heap buffers, so the inherited
  // view_ pointers stay valid); copying would alias the source's storage.
  CostTable(CostTable&&) = default;
  CostTable(const CostTable&) = delete;
  CostTable& operator=(const CostTable&) = delete;
  CostTable& operator=(CostTable&&) = delete;

  [[nodiscard]] const hwgen::HwSearchSpace& hw_space() const override {
    return hw_space_;
  }
  [[nodiscard]] const ArchSpace& arch_space() const override {
    return arch_space_;
  }

 private:
  const ArchSpace& arch_space_;
  const hwgen::HwSearchSpace& hw_space_;
  double clock_ghz_;
  std::vector<double> fixed_cycles_;   ///< [position]
  std::vector<double> fixed_energy_;   ///< [position] (pJ)
  std::vector<double> choice_cycles_;  ///< [slot][op][position]
  std::vector<double> choice_energy_;  ///< [slot][op][position] (pJ)
  std::vector<double> area_;           ///< [position] (mm^2)
  std::vector<std::uint32_t> order_;   ///< [position] -> config index
};

/// Factory form of the CostTable constructor — the construction-side
/// counterpart of `arch::load_cost_table` (cost_artifact.h), so call sites
/// read symmetrically whether a table is built from the model or loaded
/// from a compiled artifact.
[[nodiscard]] CostTable build_cost_table(const ArchSpace& arch_space,
                                         const hwgen::HwSearchSpace& hw_space,
                                         const accel::CostModel& model);

}  // namespace dance::arch

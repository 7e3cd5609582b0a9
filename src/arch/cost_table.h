#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/cost_function.h"
#include "accel/cost_model.h"
#include "arch/space.h"
#include "hwgen/exhaustive.h"
#include "hwgen/search_space.h"

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
/// Everything downstream of exhaustive ground truth — `serve::ExactBackend`,
/// the evaluator-dataset generator, the searches — takes a
/// `const CostTable&`.
///
/// After the build the arrays are permuted in place into *scan order*
/// (docs/cost_table.md): the configs no lower-index config on one of their
/// four hardware axes dominates come first, ascending, and the rest follow,
/// ascending. `optimal` scans only that prefix; `metrics` and `evaluate_all`
/// map through the order and cover the whole space.
class CostTable {
 public:
  /// Builds the table by sweeping the whole (slot, op, config) space over
  /// `runtime::global_pool()`, then permutes it into scan order. Holds
  /// references to `arch_space` and `hw_space` (not `model`, which is only
  /// consulted during the build); both must outlive the table.
  CostTable(const ArchSpace& arch_space, const hwgen::HwSearchSpace& hw_space,
            const accel::CostModel& model);

  /// Network metrics of `a` on configuration `config_index`.
  [[nodiscard]] accel::CostMetrics metrics(std::size_t config_index,
                                           const Architecture& a) const;

  /// Metrics of `a` on every configuration, in space order.
  [[nodiscard]] std::vector<accel::CostMetrics> evaluate_all(
      const Architecture& a) const;

  /// Exact hardware generation (arg-min over the whole space, Eq. 4): the
  /// first configuration in space order at the minimum cost (strict `<`),
  /// or configuration 0 with cost +inf when no cost is below +inf.
  ///
  /// Contract: `cost_fn` must be non-decreasing in latency, energy and
  /// area (see accel::HwCostFn). Configurations that a lower-index
  /// configuration dominates can then never be the first minimum, so the
  /// scan skips them.
  [[nodiscard]] hwgen::HwSearchResult optimal(
      const Architecture& a, const accel::HwCostFn& cost_fn) const;

  /// The same scan with EDAP inlined: the costs stay in vector registers
  /// instead of one std::function call per configuration. Bit-identical to
  /// `optimal(a, accel::edap_cost())`.
  [[nodiscard]] hwgen::HwSearchResult optimal(const Architecture& a,
                                              accel::Edap cost) const;

  /// Number of configurations `optimal` scans (the kept prefix).
  [[nodiscard]] std::size_t scan_size() const { return num_kept_; }

  [[nodiscard]] const hwgen::HwSearchSpace& hw_space() const {
    return hw_space_;
  }
  [[nodiscard]] const ArchSpace& arch_space() const { return arch_space_; }

 private:
  [[nodiscard]] std::size_t num_configs() const { return area_.size(); }

  [[nodiscard]] std::size_t slot_offset(int slot, int op) const {
    return (static_cast<std::size_t>(slot) * kNumCandidateOps +
            static_cast<std::size_t>(op)) *
           num_configs();
  }

  /// metrics() of the config stored at `position`, without validating `a`.
  [[nodiscard]] accel::CostMetrics metrics_at(std::size_t position,
                                              const Architecture& a) const;

  /// Body of both `optimal` overloads (docs/cost_table.md, "Scan order").
  template <typename Cost>
  [[nodiscard]] hwgen::HwSearchResult scan(const Architecture& a,
                                           const Cost& cost) const;

  /// `pruned[i]` is 1 when some lower-index config on one of config i's
  /// four hardware axes is `<=` config i on every table coordinate (fixed
  /// cycles, fixed energy, area and every per-(slot, op) cycles and
  /// energy). Reads the rows in space order, so it runs before the
  /// permutation.
  [[nodiscard]] std::vector<std::uint8_t> pruned_configs() const;

  const ArchSpace& arch_space_;
  const hwgen::HwSearchSpace& hw_space_;
  double clock_ghz_;
  int slots_;
  std::size_t num_kept_ = 0;           ///< length of the scanned prefix
  std::vector<double> fixed_cycles_;   ///< [position]
  std::vector<double> fixed_energy_;   ///< [position] (pJ)
  std::vector<double> choice_cycles_;  ///< [slot][op][position]
  std::vector<double> choice_energy_;  ///< [slot][op][position] (pJ)
  std::vector<double> area_;           ///< [position] (mm^2)
  std::vector<std::uint32_t> order_;     ///< [position] -> config index
  std::vector<std::uint32_t> position_;  ///< [config index] -> position
};

}  // namespace dance::arch

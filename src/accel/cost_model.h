#pragma once

#include <algorithm>
#include <span>

#include "accel/accelerator.h"
#include "accel/conv_shape.h"

namespace dance::accel {

/// Per-layer simulation result (before unit conversion).
struct LayerCost {
  double cycles = 0.0;     ///< execution latency in clock cycles
  double energy_pj = 0.0;  ///< dynamic + static energy in picojoules
};

/// Network-level hardware cost metrics in the units the paper reports.
struct CostMetrics {
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  double area_mm2 = 0.0;

  /// Energy-delay-area product in the paper's unit, J * sec * m^2 * 1e-12
  /// (Eq. 4; Li et al. 2009).
  [[nodiscard]] double edap() const {
    // mJ * ms * mm^2 = 1e-3 J * 1e-3 s * 1e-6 m^2 = 1e-12 J*s*m^2.
    return energy_mj * latency_ms * area_mm2;
  }
};

/// Full per-layer accounting of where cycles and energy go — the kind of
/// report Timeloop/Accelergy print for a mapping. Useful for debugging
/// design points and for the design-space example.
struct CostBreakdown {
  // Latency components (cycles); the layer is bound by the largest.
  double compute_cycles = 0.0;
  double gb_cycles = 0.0;
  double dram_cycles = 0.0;

  // Traffic.
  double gb_words = 0.0;
  double dram_words = 0.0;
  double rf_accesses = 0.0;

  // Energy components (pJ).
  double mac_pj = 0.0;
  double rf_pj = 0.0;
  double gb_pj = 0.0;
  double dram_pj = 0.0;
  double noc_pj = 0.0;
  double static_pj = 0.0;

  [[nodiscard]] double total_cycles() const {
    return std::max({compute_cycles, gb_cycles, dram_cycles});
  }
  [[nodiscard]] double total_energy_pj() const {
    return mac_pj + rf_pj + gb_pj + dram_pj + noc_pj + static_pj;
  }
  /// Which roofline term binds the latency: "compute", "gb" or "dram".
  [[nodiscard]] const char* bottleneck() const {
    if (compute_cycles >= gb_cycles && compute_cycles >= dram_cycles) {
      return "compute";
    }
    return gb_cycles >= dram_cycles ? "gb" : "dram";
  }
};

/// Analytical accelerator evaluation model in the spirit of
/// Timeloop (latency / mapping) + Accelergy (energy / area).
///
/// The model maps each convolution onto the PE array according to the
/// configured dataflow, accounting for:
///  - spatial tiling & array under-utilization (ceil quantization of the
///    mapped dimensions, so e.g. WS favours channel-heavy layers and OS
///    favours large feature maps — the interaction the paper builds on),
///  - register-file capacity (too-small RFs force weight/window refills,
///    large RFs let RS batch channels and cut partial-sum traffic),
///  - a three-level memory hierarchy (RF / global buffer / DRAM) with
///    per-level access counting and a bandwidth roofline for latency,
///  - NoC delivery energy and per-PE static energy, which penalizes large
///    arrays running under-utilized layers.
///
/// It is not cycle-accurate; it reproduces the qualitative cost surface the
/// evaluator network must learn (see DESIGN.md §2).
class CostModel {
 public:
  explicit CostModel(const TechnologyParams& tech = {});

  /// Latency & energy of one layer on one accelerator configuration.
  [[nodiscard]] LayerCost layer_cost(const AcceleratorConfig& config,
                                     const ConvShape& shape) const;

  /// Batched form of layer_cost: evaluates `shapes[i]` into `out[i]` for
  /// every i, hoisting the per-config coefficients (RF access energy,
  /// average NoC hop count) out of the per-layer loop. Bit-identical to
  /// calling layer_cost once per shape — this is the single entry point the
  /// CostTable build, network_cost and the hwgen benches all route through.
  /// Throws std::invalid_argument when `out` is smaller than `shapes`.
  void layer_cost_batch(const AcceleratorConfig& config,
                        std::span<const ConvShape> shapes,
                        std::span<LayerCost> out) const;

  /// Component-level accounting of the same evaluation (the totals agree
  /// exactly with layer_cost).
  [[nodiscard]] CostBreakdown explain(const AcceleratorConfig& config,
                                      const ConvShape& shape) const;

  /// Die area of a configuration (independent of the workload).
  [[nodiscard]] double area_mm2(const AcceleratorConfig& config) const;

  /// Whole-network metrics: latencies and energies sum over layers.
  [[nodiscard]] CostMetrics network_cost(
      const AcceleratorConfig& config, std::span<const ConvShape> layers) const;

  [[nodiscard]] const TechnologyParams& tech() const { return tech_; }

 private:
  /// Intermediate mapping statistics of one layer on one config.
  struct Mapping {
    double compute_cycles = 0.0;
    double gb_words = 0.0;    ///< global buffer <-> array traffic
    double dram_words = 0.0;  ///< DRAM <-> global buffer traffic
    double rf_accesses = 0.0;
  };

  /// Workload-independent per-config coefficients, computed once per
  /// layer_cost_batch call instead of once per layer.
  struct ConfigCoeffs {
    double rf_access_pj = 0.0;
    double avg_hops = 0.0;
  };

  [[nodiscard]] Mapping map_weight_stationary(const AcceleratorConfig& c,
                                              const ConvShape& s) const;
  [[nodiscard]] Mapping map_output_stationary(const AcceleratorConfig& c,
                                              const ConvShape& s) const;
  [[nodiscard]] Mapping map_row_stationary(const AcceleratorConfig& c,
                                           const ConvShape& s) const;

  [[nodiscard]] ConfigCoeffs coeffs_for(const AcceleratorConfig& c) const;
  [[nodiscard]] CostBreakdown explain_with(const ConfigCoeffs& co,
                                           const AcceleratorConfig& config,
                                           const ConvShape& shape) const;

  TechnologyParams tech_;
};

}  // namespace dance::accel

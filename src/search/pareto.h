#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "arch/cost_table.h"
#include "search/dance.h"

namespace dance::search {

// ---------------------------------------------------------------------------
// Multi-objective co-search (docs/search.md).
//
// The paper collapses the objective to one scalar (Eq. 3 linear mix or the
// Eq. 4 EDAP), so every run yields a single design. The Pareto mode sweeps a
// ladder of scalarizations — lambda2 values and/or Eq. 3 weight settings —
// across the runtime::global_pool() lanes in ONE invocation, then reports
// the non-dominated (error, latency, energy, area) front of the collected
// outcomes. Hard constraints (ConstraintSpec) filter the front and steer
// each scalarized search through the warm-ramped penalty term.
// ---------------------------------------------------------------------------

/// One scalarization of the sweep: the lambda2 / cost-kind / weight setting
/// a single DanceSearch optimizes. `seed` 0 means "derive from the base
/// options' seed and the sweep position" (so entries stay decorrelated but
/// the whole sweep is reproducible).
struct Scalarization {
  float lambda2 = 1.0F;
  CostKind cost_kind = CostKind::kEdap;
  accel::LinearCostWeights weights{};
  std::uint64_t seed = 0;
};

/// Convenience ladder: one Scalarization per lambda2 value.
[[nodiscard]] std::vector<Scalarization> lambda2_sweep(
    std::span<const float> lambda2_values, CostKind kind = CostKind::kEdap,
    const accel::LinearCostWeights& weights = {});

/// A swept design point: the scalarization that produced it, the outcome,
/// and where it landed relative to the constraints and the front.
struct FrontPoint {
  Scalarization scalarization;
  SearchOutcome outcome;
  bool feasible = true;   ///< against ParetoOptions::base.constraints
  bool on_front = false;  ///< member of the non-dominated subset
};

/// Result of one multi-objective run: every swept point (sweep order) plus
/// the dominance-sorted indices of the front.
struct ParetoResult {
  std::vector<FrontPoint> points;
  /// Indices into `points`, sorted by (error, latency, energy, area, index)
  /// ascending — the deterministic "dominance-sorted" order the front CSV
  /// and the CI smoke assert.
  std::vector<std::size_t> front;
};

/// The four minimization objectives of an outcome:
/// (error %, latency ms, energy mJ, area mm^2).
[[nodiscard]] std::array<double, 4> objectives(const SearchOutcome& o);

/// True when all four objectives are finite; non-finite outcomes never make
/// the front (and never dominate anything).
[[nodiscard]] bool finite_objectives(const SearchOutcome& o);

/// True iff `a` dominates `b`: <= on all four objectives, < on at least one.
/// Non-finite outcomes dominate nothing.
[[nodiscard]] bool dominates_outcome(const SearchOutcome& a,
                                     const SearchOutcome& b);

/// Non-dominated subset of `outcomes` with deterministic tie-breaking:
/// non-finite outcomes are skipped, exact-duplicate objective vectors keep
/// only the earliest index, and the returned indices are sorted by
/// (error, latency, energy, area, original index) ascending.
[[nodiscard]] std::vector<std::size_t> pareto_front_indices(
    std::span<const SearchOutcome> outcomes);

/// Options of the multi-objective mode. `base` carries everything a single
/// search needs (epochs, constraints, retrain budget, base seed); `sweep`
/// lists the scalarizations, one search each.
struct ParetoOptions {
  DanceOptions base;
  std::vector<Scalarization> sweep;
};

/// One-run Pareto-front co-search: runs every scalarization in
/// `opts.sweep`, collects the outcomes, and computes the constrained
/// non-dominated front.
class ParetoCoSearch {
 public:
  ParetoCoSearch(const data::SyntheticTask& task,
                 const arch::CostTable& cost_table,
                 evalnet::Evaluator& evaluator,
                 const nas::SuperNetConfig& net_config, ParetoOptions opts);

  /// Throws std::invalid_argument on an empty sweep.
  [[nodiscard]] ParetoResult run();

 private:
  const data::SyntheticTask& task_;
  const arch::CostTable& cost_table_;
  evalnet::Evaluator& evaluator_;
  nas::SuperNetConfig net_config_;
  ParetoOptions opts_;
};

/// Writes the swept points to CSV: front rows first in dominance-sorted
/// order (series "front"), then the remaining points in sweep order
/// ("dominated" / "infeasible"). Columns:
///   series,lambda2,cost_kind,error_pct,latency_ms,energy_mj,area_mm2,edap,
///   feasible,on_front
void write_front_csv(const std::string& path, const ParetoResult& result);

/// Constrained exhaustive hardware generation — the oracle the penalized
/// arg-min is validated against: evaluate every configuration, keep the
/// feasible ones, and return the base-cost arg-min among them (earliest
/// index on ties). When nothing is feasible, returns the least-violating
/// configuration (ties again to the earliest index).
[[nodiscard]] hwgen::HwSearchResult constrained_optimal(
    const arch::CostTable& table, const arch::Architecture& a,
    const accel::HwCostFn& base_cost, const ConstraintSpec& spec);

/// Verifies a ParetoResult against the exact cost table: every front
/// point's hardware must be non-dominated in (latency, energy, area) among
/// the feasible configurations of its own architecture, and the front
/// itself must be mutually non-dominating. Returns an empty string on
/// success, else a description of the first violation.
[[nodiscard]] std::string verify_front(const ParetoResult& result,
                                       const arch::CostTable& table,
                                       const ConstraintSpec& spec);

// ---------------------------------------------------------------------------
// History-penalty exploration (VLSIGR's negotiated-congestion `he` term, in
// search form): every restart records the (arch, HW) region it converged
// into; revisiting a region costs more on the next restart, forcing diverse
// designs without giving up on quality. Compared against plain multi-seed
// restarts in bench_fig5_pareto.
// ---------------------------------------------------------------------------

/// Per-(slot, op) visit counts over the architecture one-hot encoding.
class ArchHistory {
 public:
  explicit ArchHistory(const arch::ArchSpace& space);

  /// Bump the visit count of every (slot, op) the architecture uses.
  void record(const arch::Architecture& a);

  [[nodiscard]] int visits(int slot, int op) const;

  /// he-style penalty row over the one-hot encoding: pow(visits, exponent),
  /// 0 for unvisited pairs. Sized for DanceOptions::arch_history_penalty.
  [[nodiscard]] std::vector<float> penalty_encoding(double exponent) const;

 private:
  int slots_ = 0;
  std::vector<int> he_;  ///< [slot * kNumCandidateOps + op]
};

/// Per-configuration visit counts over the hardware space. record() bumps a
/// ±1 neighborhood region in (PE_X, PE_Y, RF) choice space (same dataflow),
/// so "the same region" means near-identical accelerators, not only the
/// exact configuration.
class HwHistory {
 public:
  explicit HwHistory(const hwgen::HwSearchSpace& space);

  void record(const accel::AcceleratorConfig& c);

  [[nodiscard]] int visits(const accel::AcceleratorConfig& c) const;

  /// Multiplicative penalty factor for a configuration:
  /// 1 + scale * pow(visits, exponent).
  [[nodiscard]] double penalty_factor(std::size_t config_index, double scale,
                                      double exponent) const;

 private:
  const hwgen::HwSearchSpace& space_;
  std::vector<int> he_;  ///< [config_index]
};

/// Options of the restart explorer. With `history` false this degrades to
/// plain multi-seed restarts (the baseline the benches compare against).
struct RestartOptions {
  DanceOptions base;
  int restarts = 4;
  bool history = true;
  /// Weight of the <encoding, he> arch term and of the hardware region
  /// penalty; 0 degrades to plain multi-seed restarts.
  double history_scale = 0.5;
  /// Exponent on the visit counts (VLSIGR uses he^3.6/100; searches want a
  /// milder curve).
  double history_exponent = 1.6;
  /// Also raise the cost of revisited hardware regions when re-picking the
  /// post-search accelerator.
  bool penalize_hardware = true;
  /// Per-restart seed stride (restart r runs with base.seed + r * stride).
  std::uint64_t seed_stride = 7919;
};

/// Result of a restart run, plus the diversity measures the Table-3-style
/// comparison reports.
struct RestartResult {
  std::vector<SearchOutcome> outcomes;  ///< one per restart, restart order
  std::vector<std::size_t> front;       ///< pareto_front_indices(outcomes)
  int distinct_architectures = 0;
  int distinct_hardware = 0;
  /// Mean pairwise per-slot disagreement between restart architectures,
  /// in [0, 1]; 0 = every restart found the same network.
  double mean_pairwise_arch_distance = 0.0;
};

/// Run `opts.restarts` sequential searches, threading the history penalty
/// through them (when enabled). Deterministic for a fixed base seed: the
/// outcomes are bit-reproducible run to run (property-tested under
/// DANCE_PBT_SEED).
[[nodiscard]] RestartResult run_restarts(const data::SyntheticTask& task,
                                         const arch::CostTable& table,
                                         evalnet::Evaluator& evaluator,
                                         const nas::SuperNetConfig& net_config,
                                         const RestartOptions& opts);

}  // namespace dance::search

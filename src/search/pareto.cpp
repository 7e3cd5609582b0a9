#include "search/pareto.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>

#include "hwgen/pareto.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/csv.h"
#include "util/parallel.h"

namespace dance::search {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::vector<Scalarization> lambda2_sweep(std::span<const float> lambda2_values,
                                         CostKind kind,
                                         const accel::LinearCostWeights& weights) {
  std::vector<Scalarization> sweep;
  sweep.reserve(lambda2_values.size());
  for (const float l2 : lambda2_values) {
    Scalarization s;
    s.lambda2 = l2;
    s.cost_kind = kind;
    s.weights = weights;
    sweep.push_back(s);
  }
  return sweep;
}

std::array<double, 4> objectives(const SearchOutcome& o) {
  return {o.error_pct(), o.metrics.latency_ms, o.metrics.energy_mj,
          o.metrics.area_mm2};
}

bool finite_objectives(const SearchOutcome& o) {
  for (const double v : objectives(o)) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool dominates_outcome(const SearchOutcome& a, const SearchOutcome& b) {
  if (!finite_objectives(a) || !finite_objectives(b)) return false;
  const auto oa = objectives(a);
  const auto ob = objectives(b);
  bool le = true;
  bool lt = false;
  for (std::size_t k = 0; k < oa.size(); ++k) {
    le = le && oa[k] <= ob[k];
    lt = lt || oa[k] < ob[k];
  }
  return le && lt;
}

std::vector<std::size_t> pareto_front_indices(
    std::span<const SearchOutcome> outcomes) {
  std::vector<std::size_t> valid;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (finite_objectives(outcomes[i])) valid.push_back(i);
  }
  std::vector<std::size_t> front;
  for (const std::size_t i : valid) {
    bool keep = true;
    for (const std::size_t j : valid) {
      if (j == i) continue;
      if (dominates_outcome(outcomes[j], outcomes[i])) {
        keep = false;
        break;
      }
      // Deterministic tie-breaking: of identical objective vectors only the
      // earliest sweep index survives.
      if (j < i && objectives(outcomes[j]) == objectives(outcomes[i])) {
        keep = false;
        break;
      }
    }
    if (keep) front.push_back(i);
  }
  std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
    const auto oa = objectives(outcomes[a]);
    const auto ob = objectives(outcomes[b]);
    if (oa != ob) return oa < ob;
    return a < b;
  });
  return front;
}

ParetoCoSearch::ParetoCoSearch(const data::SyntheticTask& task,
                               const arch::CostTable& cost_table,
                               evalnet::Evaluator& evaluator,
                               const nas::SuperNetConfig& net_config,
                               ParetoOptions opts)
    : task_(task),
      cost_table_(cost_table),
      evaluator_(evaluator),
      net_config_(net_config),
      opts_(std::move(opts)) {}

ParetoResult ParetoCoSearch::run() {
  if (opts_.sweep.empty()) {
    throw std::invalid_argument("ParetoCoSearch: empty scalarization sweep");
  }
  obs::ScopedSpan span("pareto.run");
  obs::Registry::global().counter("search.pareto.sweeps").inc();

  // Prepare the shared evaluator BEFORE fanning out: DanceSearch::run calls
  // these setters too, but they are idempotent, so with the state already in
  // place every concurrent lane's call degrades to a read (evaluator.h).
  evaluator_.set_training(false);
  evaluator_.set_frozen(true);

  const std::size_t n = opts_.sweep.size();
  std::vector<DanceOptions> entry_opts(n, opts_.base);
  for (std::size_t i = 0; i < n; ++i) {
    const Scalarization& s = opts_.sweep[i];
    entry_opts[i].lambda2 = s.lambda2;
    entry_opts[i].cost_kind = s.cost_kind;
    entry_opts[i].linear_weights = s.weights;
    entry_opts[i].seed = s.seed != 0
                             ? s.seed
                             : opts_.base.seed + 101 * (i + 1);
    entry_opts[i].verbose = false;
  }

  std::vector<SearchOutcome> outcomes(n);
  std::vector<std::exception_ptr> errors(n);
  const auto body = [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      try {
        DanceSearch search(task_, cost_table_, evaluator_, net_config_,
                           entry_opts[idx]);
        outcomes[idx] = search.run();
      } catch (...) {
        errors[idx] = std::current_exception();
      }
    }
  };
  // Grain 1: one sweep entry per chunk. Inner tensor/search loops issued
  // from inside this job run inline (pool reentrancy), so the sweep is the
  // only level of parallelism. Entries share no mutable state — the
  // evaluator is pre-frozen (reads only) and every entry owns its RNG — so
  // each stays bit-identical to a serial run (runtime::SerialGuard or
  // DANCE_NUM_THREADS=1).
  util::parallel_for(0, static_cast<long>(n), body, /*grain=*/1);
  for (const auto& e : errors) {  // first failure in sweep order, if any
    if (e) std::rethrow_exception(e);
  }

  ParetoResult result;
  result.points.resize(n);
  std::vector<std::size_t> candidate_map;  // candidate k -> point index
  std::vector<SearchOutcome> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    result.points[i].scalarization = opts_.sweep[i];
    result.points[i].outcome = outcomes[i];
    result.points[i].feasible =
        opts_.base.constraints.feasible(outcomes[i].metrics);
    if (result.points[i].feasible && finite_objectives(outcomes[i])) {
      candidate_map.push_back(i);
      candidates.push_back(outcomes[i]);
    }
  }
  for (const std::size_t k : pareto_front_indices(candidates)) {
    const std::size_t i = candidate_map[k];
    result.points[i].on_front = true;
    result.front.push_back(i);
  }
  obs::Registry::global()
      .gauge("search.pareto.front_size")
      .set(static_cast<double>(result.front.size()));
  return result;
}

void write_front_csv(const std::string& path, const ParetoResult& result) {
  util::CsvWriter csv(path,
                      {"series", "lambda2", "cost_kind", "error_pct",
                       "latency_ms", "energy_mj", "area_mm2", "edap",
                       "feasible", "on_front"});
  const auto emit = [&](const FrontPoint& p, const char* series) {
    csv.add_row({series, fmt_double(p.scalarization.lambda2),
                 to_string(p.scalarization.cost_kind),
                 fmt_double(p.outcome.error_pct()),
                 fmt_double(p.outcome.metrics.latency_ms),
                 fmt_double(p.outcome.metrics.energy_mj),
                 fmt_double(p.outcome.metrics.area_mm2),
                 fmt_double(p.outcome.metrics.edap()), p.feasible ? "1" : "0",
                 p.on_front ? "1" : "0"});
  };
  for (const std::size_t i : result.front) emit(result.points[i], "front");
  for (const FrontPoint& p : result.points) {
    if (p.on_front) continue;
    emit(p, p.feasible ? "dominated" : "infeasible");
  }
  csv.flush();
}

hwgen::HwSearchResult constrained_optimal(const arch::CostTable& table,
                                          const arch::Architecture& a,
                                          const accel::HwCostFn& base_cost,
                                          const ConstraintSpec& spec) {
  const std::vector<accel::CostMetrics> all = table.evaluate_all(a);
  if (all.empty()) {
    throw std::logic_error("constrained_optimal: empty hardware space");
  }
  long best_feasible = -1;
  double best_cost = 0.0;
  long least_violating = -1;
  double least_violation = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (spec.feasible(all[i])) {
      const double c = base_cost(all[i]);
      if (best_feasible < 0 || c < best_cost) {
        best_feasible = static_cast<long>(i);
        best_cost = c;
      }
    } else {
      const double v = spec.violation(all[i]);
      if (least_violating < 0 || v < least_violation) {
        least_violating = static_cast<long>(i);
        least_violation = v;
      }
    }
  }
  const std::size_t pick = static_cast<std::size_t>(
      best_feasible >= 0 ? best_feasible : least_violating);
  hwgen::HwSearchResult r;
  r.config = table.hw_space().config_at(pick);
  r.metrics = all[pick];
  r.cost = constrained_cost_fn(base_cost, spec)(all[pick]);
  return r;
}

std::string verify_front(const ParetoResult& result,
                         const arch::CostTable& table,
                         const ConstraintSpec& spec) {
  for (std::size_t fi = 0; fi < result.front.size(); ++fi) {
    const FrontPoint& p = result.points[result.front[fi]];
    // Mutual non-domination across the front (4 objectives).
    for (std::size_t fj = 0; fj < result.front.size(); ++fj) {
      if (fi == fj) continue;
      const FrontPoint& q = result.points[result.front[fj]];
      if (dominates_outcome(q.outcome, p.outcome)) {
        return "front point " + std::to_string(result.front[fi]) +
               " is dominated by front point " +
               std::to_string(result.front[fj]);
      }
    }
    // Hardware-level: no feasible configuration of the same architecture may
    // strictly dominate the point's (latency, energy, area).
    const auto all = table.evaluate_all(p.outcome.architecture);
    for (std::size_t c = 0; c < all.size(); ++c) {
      if (!spec.feasible(all[c])) continue;
      if (hwgen::dominates(all[c], p.outcome.metrics)) {
        return "front point " + std::to_string(result.front[fi]) +
               " hardware is dominated by feasible config " +
               std::to_string(c) + " of its own architecture";
      }
    }
  }
  return "";
}

// --- History-penalty exploration --------------------------------------------

ArchHistory::ArchHistory(const arch::ArchSpace& space)
    : slots_(space.num_searchable()),
      he_(static_cast<std::size_t>(space.encoding_width()), 0) {}

void ArchHistory::record(const arch::Architecture& a) {
  for (std::size_t slot = 0; slot < a.size(); ++slot) {
    const auto idx = slot * arch::kNumCandidateOps +
                     static_cast<std::size_t>(a[slot]);
    if (idx < he_.size()) ++he_[idx];
  }
}

int ArchHistory::visits(int slot, int op) const {
  const auto idx = static_cast<std::size_t>(slot) * arch::kNumCandidateOps +
                   static_cast<std::size_t>(op);
  return idx < he_.size() ? he_[idx] : 0;
}

std::vector<float> ArchHistory::penalty_encoding(double exponent) const {
  std::vector<float> row(he_.size(), 0.0F);
  for (std::size_t i = 0; i < he_.size(); ++i) {
    if (he_[i] > 0) {
      row[i] = static_cast<float>(std::pow(static_cast<double>(he_[i]), exponent));
    }
  }
  return row;
}

HwHistory::HwHistory(const hwgen::HwSearchSpace& space)
    : space_(space), he_(space.size(), 0) {}

void HwHistory::record(const accel::AcceleratorConfig& c) {
  const int pxi = space_.pe_index(c.pe_x);
  const int pyi = space_.pe_index(c.pe_y);
  const int rfi = space_.rf_index(c.rf_size);
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dr = -1; dr <= 1; ++dr) {
        const int nx = pxi + dx;
        const int ny = pyi + dy;
        const int nr = rfi + dr;
        if (nx < 0 || nx >= space_.num_pe_choices()) continue;
        if (ny < 0 || ny >= space_.num_pe_choices()) continue;
        if (nr < 0 || nr >= space_.num_rf_choices()) continue;
        accel::AcceleratorConfig nb;
        nb.pe_x = space_.pe_value(nx);
        nb.pe_y = space_.pe_value(ny);
        nb.rf_size = space_.rf_value(nr);
        nb.dataflow = c.dataflow;
        ++he_[space_.index_of(nb)];
      }
    }
  }
}

int HwHistory::visits(const accel::AcceleratorConfig& c) const {
  return he_[space_.index_of(c)];
}

double HwHistory::penalty_factor(std::size_t config_index, double scale,
                                 double exponent) const {
  const int he = he_[config_index];
  if (he <= 0) return 1.0;
  return 1.0 + scale * std::pow(static_cast<double>(he), exponent);
}

RestartResult run_restarts(const data::SyntheticTask& task,
                           const arch::CostTable& table,
                           evalnet::Evaluator& evaluator,
                           const nas::SuperNetConfig& net_config,
                           const RestartOptions& opts) {
  if (opts.restarts < 1) {
    throw std::invalid_argument("run_restarts: restarts must be >= 1");
  }
  obs::ScopedSpan span("pareto.restarts");
  obs::Registry::global()
      .counter(opts.history ? "search.restarts.history"
                            : "search.restarts.multiseed")
      .inc();

  ArchHistory arch_history(table.arch_space());
  HwHistory hw_history(table.hw_space());
  const accel::HwCostFn scalar_cost = constrained_cost_fn(
      make_cost_fn(opts.base.cost_kind, opts.base.linear_weights),
      opts.base.constraints);

  RestartResult result;
  result.outcomes.reserve(static_cast<std::size_t>(opts.restarts));
  for (int r = 0; r < opts.restarts; ++r) {
    DanceOptions dopts = opts.base;
    dopts.seed = opts.base.seed + static_cast<std::uint64_t>(r) * opts.seed_stride;
    std::vector<float> penalty_row;
    if (opts.history && r > 0 && opts.history_scale > 0.0) {
      penalty_row = arch_history.penalty_encoding(opts.history_exponent);
      dopts.arch_history_penalty = &penalty_row;
      dopts.history_scale = static_cast<float>(opts.history_scale);
    }
    DanceSearch search(task, table, evaluator, net_config, dopts);
    SearchOutcome out = search.run();

    if (opts.history && opts.penalize_hardware && r > 0) {
      // Re-pick the accelerator with revisited regions costing more — the
      // hardware half of the negotiated-congestion loop. Feasibility still
      // wins: the penalty factor (>= 1, bounded) cannot promote an
      // infeasible configuration past a feasible one.
      const auto all = table.evaluate_all(out.architecture);
      std::size_t best = 0;
      double best_cost = 0.0;
      bool first = true;
      for (std::size_t i = 0; i < all.size(); ++i) {
        const double c =
            scalar_cost(all[i]) *
            hw_history.penalty_factor(i, opts.history_scale,
                                      opts.history_exponent);
        if (first || c < best_cost) {
          best = i;
          best_cost = c;
          first = false;
        }
      }
      out.hardware = table.hw_space().config_at(best);
      out.metrics = all[best];
    }

    if (opts.history) {
      arch_history.record(out.architecture);
      hw_history.record(out.hardware);
    }
    result.outcomes.push_back(std::move(out));
  }

  result.front = pareto_front_indices(result.outcomes);
  std::set<arch::Architecture> archs;
  std::set<std::size_t> hw_configs;
  for (const auto& o : result.outcomes) {
    archs.insert(o.architecture);
    hw_configs.insert(table.hw_space().index_of(o.hardware));
  }
  result.distinct_architectures = static_cast<int>(archs.size());
  result.distinct_hardware = static_cast<int>(hw_configs.size());
  double dist_sum = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    for (std::size_t j = i + 1; j < result.outcomes.size(); ++j) {
      const auto& a = result.outcomes[i].architecture;
      const auto& b = result.outcomes[j].architecture;
      const std::size_t slots = std::min(a.size(), b.size());
      if (slots == 0) continue;
      int diff = 0;
      for (std::size_t s = 0; s < slots; ++s) diff += a[s] != b[s] ? 1 : 0;
      dist_sum += static_cast<double>(diff) / static_cast<double>(slots);
      ++pairs;
    }
  }
  result.mean_pairwise_arch_distance = pairs > 0 ? dist_sum / pairs : 0.0;
  obs::Registry::global()
      .gauge("search.restarts.distinct_architectures")
      .set(static_cast<double>(result.distinct_architectures));
  return result;
}

}  // namespace dance::search

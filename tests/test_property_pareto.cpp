// Property suite: the multi-objective co-search (search/pareto.h).
//   - pareto_front_indices agrees with a brute-force O(n^2) oracle on
//     randomized outcome sets with coarse-grid ties, exact duplicates and
//     occasional NaN/inf poisoning — non-dominated AND complete;
//   - a constrained search never returns a constraint-violating design when
//     a feasible one exists (randomized architectures and budgets over a
//     real CostTable), and matches the filtered exhaustive oracle;
//   - a history-penalty restart run is bit-reproducible for a fixed seed
//     (seeded from DANCE_PBT_SEED), and the parallel sweep is bit-identical
//     to the serial one — the latter doubles as the TSan hammer on the
//     shared frozen evaluator.
// Suite names carry the "pareto" tag so `ctest -R pareto` includes this
// fuzz next to the example-based suites in tests/test_pareto.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "arch/cost_table.h"
#include "runtime/thread_pool.h"
#include "search/pareto.h"
#include "testing/property.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

/// One shared small-space environment (see tests/test_property_costtable.cpp
/// for the sizing rationale).
struct Env {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space{
      {.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32, .rf_step = 8}};
  accel::CostModel model{};
  arch::CostTable table{arch_space, hw_space, model};
};

Env& env() {
  static Env e;
  return e;
}

// --- Front vs O(n^2) oracle -------------------------------------------------

struct OutcomeSet {
  std::vector<search::SearchOutcome> outcomes;
  std::string show() const {
    std::string out = "[";
    for (const auto& o : outcomes) {
      // Appending piece by piece: `"(" + std::to_string(...)` trips GCC
      // 12's -Wrestrict false positive inside libstdc++.
      char sep = '(';
      for (const double v : search::objectives(o)) {
        out += sep;
        out += std::to_string(v);
        sep = ',';
      }
      out += ") ";
    }
    return out + "]";
  }
};

testing_::Generator<OutcomeSet> outcome_set_gen() {
  testing_::Generator<OutcomeSet> gen;
  gen.sample = [](util::Rng& rng) {
    OutcomeSet set;
    const int n = rng.randint(0, 20);
    for (int i = 0; i < n; ++i) {
      // Coarse integer grid in [0, 4] forces ties and duplicates; ~10% of
      // coordinates are poisoned with NaN or inf.
      const auto coord = [&rng]() -> double {
        const int roll = rng.randint(0, 19);
        if (roll == 0) return std::numeric_limits<double>::quiet_NaN();
        if (roll == 1) return std::numeric_limits<double>::infinity();
        return static_cast<double>(rng.randint(0, 4));
      };
      search::SearchOutcome o;
      o.val_accuracy_pct = 100.0 - coord();
      o.metrics = accel::CostMetrics{coord(), coord(), coord()};
      set.outcomes.push_back(o);
    }
    return set;
  };
  gen.shrink = [](const OutcomeSet& set) {
    std::vector<OutcomeSet> candidates;
    for (std::size_t i = 0; i < set.outcomes.size(); ++i) {
      OutcomeSet smaller = set;
      smaller.outcomes.erase(smaller.outcomes.begin() +
                             static_cast<std::ptrdiff_t>(i));
      candidates.push_back(std::move(smaller));
    }
    return candidates;
  };
  gen.show = [](const OutcomeSet& s) { return s.show(); };
  return gen;
}

TEST(pareto_property, FrontMatchesBruteForceOracle) {
  const auto result = testing_::check<OutcomeSet>(
      "pareto front vs O(n^2) oracle", outcome_set_gen(),
      [](const OutcomeSet& set, util::Rng&) -> std::string {
        const auto& xs = set.outcomes;
        const auto front = search::pareto_front_indices(xs);

        // Oracle membership, spelled out independently: keep i iff it is
        // finite, no other finite j strictly dominates it, and no earlier j
        // has the identical objective vector.
        std::set<std::size_t> expected;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          bool finite = true;
          for (const double v : search::objectives(xs[i])) {
            finite = finite && std::isfinite(v);
          }
          if (!finite) continue;
          bool keep = true;
          for (std::size_t j = 0; j < xs.size() && keep; ++j) {
            if (j == i) continue;
            bool jfinite = true;
            for (const double v : search::objectives(xs[j])) {
              jfinite = jfinite && std::isfinite(v);
            }
            if (!jfinite) continue;
            const auto oi = search::objectives(xs[i]);
            const auto oj = search::objectives(xs[j]);
            bool le = true;
            bool lt = false;
            for (std::size_t k = 0; k < 4; ++k) {
              le = le && oj[k] <= oi[k];
              lt = lt || oj[k] < oi[k];
            }
            if (le && lt) keep = false;          // dominated
            if (j < i && oj == oi) keep = false; // duplicate, earlier wins
          }
          if (keep) expected.insert(i);
        }

        const std::set<std::size_t> got(front.begin(), front.end());
        if (got != expected) {
          return "front size " + std::to_string(got.size()) +
                 " != oracle size " + std::to_string(expected.size());
        }
        // Returned order must be (error, latency, energy, area, index)
        // ascending.
        for (std::size_t k = 1; k < front.size(); ++k) {
          const auto prev = search::objectives(xs[front[k - 1]]);
          const auto cur = search::objectives(xs[front[k]]);
          if (prev > cur ||
              (prev == cur && front[k - 1] > front[k])) {
            return "front not dominance-sorted at position " +
                   std::to_string(k);
          }
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

// --- Constrained hardware generation vs the filtered oracle -----------------

struct ConstrainedCase {
  arch::Architecture a;
  double area_quantile;
  double latency_quantile;
  std::string show() const {
    std::string out = "arch=[";
    for (const auto op : a) out += std::to_string(static_cast<int>(op)) + ",";
    return out + "] area_q=" + std::to_string(area_quantile) +
           " lat_q=" + std::to_string(latency_quantile);
  }
};

TEST(pareto_property, ConstrainedSearchNeverViolatesWhenFeasibleExists) {
  Env& e = env();
  testing_::Generator<ConstrainedCase> gen;
  gen.sample = [&e](util::Rng& rng) {
    // Quantile-derived budgets span "everything fits" through "nothing
    // fits" (quantile 0 puts the budget below the cheapest configuration).
    return ConstrainedCase{e.arch_space.random(rng),
                           static_cast<double>(rng.uniform(0.0F, 1.0F)),
                           static_cast<double>(rng.uniform(0.0F, 1.0F))};
  };
  gen.show = [](const ConstrainedCase& c) { return c.show(); };

  const auto result = testing_::check<ConstrainedCase>(
      "constrained optimal vs filtered oracle", gen,
      [&e](const ConstrainedCase& c, util::Rng&) -> std::string {
        const auto all = e.table.evaluate_all(c.a);
        std::vector<double> areas;
        std::vector<double> lats;
        for (const auto& m : all) {
          areas.push_back(m.area_mm2);
          lats.push_back(m.latency_ms);
        }
        std::sort(areas.begin(), areas.end());
        std::sort(lats.begin(), lats.end());
        const auto quantile = [](const std::vector<double>& xs, double q) {
          const auto idx = static_cast<std::size_t>(
              q * static_cast<double>(xs.size() - 1));
          return xs[idx] * 0.999;  // nudge below so the boundary config is out
        };
        search::ConstraintSpec spec;
        spec.area_budget_mm2 = quantile(areas, c.area_quantile);
        spec.latency_slo_ms = quantile(lats, c.latency_quantile);

        bool any_feasible = false;
        for (const auto& m : all) any_feasible |= spec.feasible(m);

        const accel::HwCostFn base = accel::edap_cost();
        const auto picked =
            e.table.optimal(c.a, search::constrained_cost_fn(base, spec));
        const auto oracle = search::constrained_optimal(e.table, c.a, base, spec);

        if (any_feasible && !spec.feasible(picked.metrics)) {
          return "picked a violating configuration although a feasible one "
                 "exists (violation " +
                 std::to_string(spec.violation(picked.metrics)) + ")";
        }
        if (!(oracle.config == picked.config)) {
          return "penalized arg-min disagrees with the filtered oracle";
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

// --- Search-level determinism (one-shot, seeded from DANCE_PBT_SEED) --------

/// Tiny task/evaluator shared by the (expensive) search determinism checks.
/// The evaluator stays untrained: determinism does not depend on its weights
/// being meaningful, and skipping the pre-training keeps the TSan job fast.
struct SearchEnv {
  data::SyntheticTask task;
  nas::SuperNetConfig net_config;
  evalnet::Evaluator evaluator;

  SearchEnv()
      : evaluator(make_evaluator()) {
    data::SyntheticTaskConfig dcfg;
    dcfg.input_dim = 12;
    dcfg.num_classes = 6;
    dcfg.train_samples = 256;
    dcfg.val_samples = 96;
    task = data::make_synthetic_task(dcfg);
    net_config.input_dim = 12;
    net_config.num_classes = 6;
    net_config.width = 16;
    net_config.num_blocks = 9;
  }

  static evalnet::Evaluator make_evaluator() {
    util::Rng rng(5);
    evalnet::Evaluator::Options eopts;
    eopts.hwgen.hidden_dim = 16;
    eopts.cost.hidden_dim = 16;
    return evalnet::Evaluator(env().arch_space.encoding_width(),
                              env().hw_space, rng, eopts);
  }
};

SearchEnv& search_env() {
  static SearchEnv e;
  return e;
}

search::DanceOptions tiny_base(std::uint64_t seed) {
  search::DanceOptions base;
  base.search_epochs = 2;
  base.warmup_epochs = 1;
  base.batch_size = 128;
  base.retrain.epochs = 2;
  base.seed = seed;
  return base;
}

std::string compare_outcomes(const search::SearchOutcome& a,
                             const search::SearchOutcome& b,
                             const std::string& what) {
  if (a.architecture != b.architecture) return what + ": architectures differ";
  if (!(a.hardware == b.hardware)) return what + ": hardware differs";
  if (a.metrics.latency_ms != b.metrics.latency_ms ||
      a.metrics.energy_mj != b.metrics.energy_mj ||
      a.metrics.area_mm2 != b.metrics.area_mm2) {
    return what + ": metrics differ bitwise";
  }
  if (a.val_accuracy_pct != b.val_accuracy_pct) {
    return what + ": retrained accuracy differs bitwise";
  }
  return "";
}

TEST(pareto_property, HistoryPenaltyRestartsAreBitReproducible) {
  Env& e = env();
  SearchEnv& se = search_env();
  search::RestartOptions opts;
  opts.base = tiny_base(testing_::PbtConfig::from_env().seed);
  opts.restarts = 2;
  opts.history = true;
  opts.history_scale = 0.5;

  const auto run1 =
      search::run_restarts(se.task, e.table, se.evaluator, se.net_config, opts);
  const auto run2 =
      search::run_restarts(se.task, e.table, se.evaluator, se.net_config, opts);
  ASSERT_EQ(run1.outcomes.size(), run2.outcomes.size());
  for (std::size_t i = 0; i < run1.outcomes.size(); ++i) {
    const std::string err = compare_outcomes(
        run1.outcomes[i], run2.outcomes[i], "restart " + std::to_string(i));
    EXPECT_TRUE(err.empty()) << err;
  }
  EXPECT_EQ(run1.front, run2.front);
  EXPECT_EQ(run1.distinct_architectures, run2.distinct_architectures);
  EXPECT_DOUBLE_EQ(run1.mean_pairwise_arch_distance,
                   run2.mean_pairwise_arch_distance);
}

TEST(pareto_property, ParallelSweepBitIdenticalToSerial) {
  // Also the TSan hammer: the parallel run drives concurrent searches
  // through the one shared frozen evaluator.
  Env& e = env();
  SearchEnv& se = search_env();
  search::ParetoOptions opts;
  opts.base = tiny_base(testing_::PbtConfig::from_env().seed ^ 0xA5A5);
  const std::vector<float> ladder = {0.0F, 0.7F, 1.4F};
  opts.sweep = search::lambda2_sweep(ladder);

  search::ParetoResult serial;
  {
    const runtime::SerialGuard guard;
    serial = search::ParetoCoSearch(se.task, e.table, se.evaluator,
                                    se.net_config, opts)
                 .run();
  }
  const auto parallel =
      search::ParetoCoSearch(se.task, e.table, se.evaluator, se.net_config,
                             opts)
          .run();

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const std::string err =
        compare_outcomes(serial.points[i].outcome, parallel.points[i].outcome,
                         "sweep entry " + std::to_string(i));
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(serial.points[i].on_front, parallel.points[i].on_front);
  }
  EXPECT_EQ(serial.front, parallel.front);
}

}  // namespace

// Property suite: the cost-table pipeline end to end.
//   - the pool-parallel table build is bit-identical to a serial build: every
//     table cell through evaluate_all, plus scan_size() and optimal() bits;
//   - the pruned scan in optimal() returns the config, metric bits and cost
//     bits of a full first-minimum scan, for every non-decreasing cost form
//     the repo uses plus a feasibility filter and forced ties, against two
//     oracles that never touch the scan order: hwgen::ExhaustiveSearch over
//     metrics summed from the cost model (small space) and a full
//     metrics(ci) scan (full space).
//   - the inlined accel::Edap scan returns the bits of the HwCostFn scan
//     with accel::edap_cost() and of a full metrics(ci) EDAP scan, on spaces
//     that end in whole and in partial 16-position chunks.
// Suite name carries the "costtable" tag so `ctest -R costtable` includes
// this fuzz next to the example-based suites in tests/test_costtable.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/cost_function.h"
#include "accel/cost_model.h"
#include "arch/cost_table.h"
#include "hwgen/exhaustive.h"
#include "runtime/thread_pool.h"
#include "testing/generators.h"
#include "testing/property.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

/// One shared small-space environment: the 300-config hardware space keeps
/// each optimal() sweep cheap enough to fuzz hundreds of architectures.
struct Env {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space{
      {.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32, .rf_step = 8}};
  accel::CostModel model;
  arch::CostTable table{arch_space, hw_space, model};
};

Env& env() {
  static Env e;
  return e;
}

testing_::Generator<arch::Architecture> architecture_gen() {
  testing_::Generator<arch::Architecture> gen;
  gen.sample = [](util::Rng& rng) { return env().arch_space.random(rng); };
  gen.show = [](const arch::Architecture& a) {
    std::string out;
    for (const auto op : a) {
      if (!out.empty()) out += ",";
      out += std::to_string(static_cast<int>(op));
    }
    return out;
  };
  return gen;
}

// --- the pruned scan against full-scan oracles ------------------------------

enum class CostForm {
  kEdap,
  kLinear,
  kLatency,
  kConstrained,
  kFeasible,
  kQuantisedEdap,
  kZero,
  kInfinity
};
constexpr int kNumCostForms = 8;

/// Area budget and latency SLO of the kConstrained and kFeasible forms.
struct Budgets {
  double area_mm2 = 0.0;
  double latency_ms = 0.0;
};

/// Feasibility filter over a base cost: a config within both budgets keeps
/// its base cost, any other costs 1e18 * (1 + its summed relative violation,
/// capped at 1e6). A budget <= 0 adds no violation, so with such budgets
/// every config ties. Non-decreasing in every metric whenever `base` is.
accel::HwCostFn feasibility_filtered(accel::HwCostFn base, Budgets b) {
  return [base = std::move(base), b](const accel::CostMetrics& m) {
    if (m.area_mm2 <= b.area_mm2 && m.latency_ms <= b.latency_ms) {
      return base(m);
    }
    double v = 0.0;
    if (b.area_mm2 > 0.0) v += std::max(0.0, m.area_mm2 / b.area_mm2 - 1.0);
    if (b.latency_ms > 0.0) {
      v += std::max(0.0, m.latency_ms / b.latency_ms - 1.0);
    }
    return 1e18 * (1.0 + std::min(v, 1e6));
  };
}

struct CostCase {
  arch::Architecture a;
  CostForm form = CostForm::kEdap;
  accel::LinearCostWeights weights;  ///< kLinear, and a linear kConstrained
  bool linear_base = false;          ///< kConstrained: linear, else EDAP
  Budgets budgets;                   ///< kConstrained and kFeasible
  double quantum = 1.0;              ///< kQuantisedEdap
};

accel::HwCostFn cost_of(const CostCase& c) {
  switch (c.form) {
    case CostForm::kEdap:
      return accel::edap_cost();
    case CostForm::kLinear:
      return accel::linear_cost(c.weights);
    case CostForm::kLatency:
      return [](const accel::CostMetrics& m) { return m.latency_ms; };
    case CostForm::kConstrained:
      return feasibility_filtered(c.linear_base ? accel::linear_cost(c.weights)
                                                : accel::edap_cost(),
                                  c.budgets);
    case CostForm::kFeasible:  // 0 for every feasible config
      return feasibility_filtered(
          [](const accel::CostMetrics&) { return 0.0; }, c.budgets);
    case CostForm::kQuantisedEdap:
      return [q = c.quantum](const accel::CostMetrics& m) {
        return std::floor(m.edap() / q) * q;
      };
    case CostForm::kZero:
      return [](const accel::CostMetrics&) { return 0.0; };
    case CostForm::kInfinity:
      return [](const accel::CostMetrics&) {
        return std::numeric_limits<double>::infinity();
      };
  }
  return nullptr;
}

/// Random architecture and cost. Budgets and quanta are scaled from the
/// metrics of a random config of `table`, so constraints bind and quantised
/// costs tie for many configs. kFeasible's budgets are exactly one config's
/// metrics; every feasible config ties, which is what exposes a config
/// pruned by a higher-index dominator.
testing_::Generator<CostCase> cost_case_gen(const arch::CostTable& table) {
  testing_::Generator<CostCase> gen;
  gen.sample = [&table](util::Rng& rng) {
    CostCase c;
    c.a = table.arch_space().random(rng);
    c.form = static_cast<CostForm>(rng.randint(0, kNumCostForms - 1));
    const auto weight = [&rng] {
      return rng.randint(0, 2) == 0
                 ? 0.0
                 : static_cast<double>(rng.uniform(0.0F, 10.0F));
    };
    c.weights = {weight(), weight(), weight()};
    c.linear_base = rng.randint(0, 1) == 1;
    const auto probe = table.metrics(
        static_cast<std::size_t>(rng.randint(
            0, static_cast<int>(table.hw_space().size()) - 1)),
        c.a);
    switch (rng.randint(0, 2)) {
      case 0:  // nothing is feasible, every config costs the same
        c.budgets = {.area_mm2 = 1e-9, .latency_ms = 1e-9};
        break;
      case 1:  // budgets of zero are ignored: again all configs tie
        c.budgets = {.area_mm2 = 0.0, .latency_ms = 0.0};
        break;
      default:
        c.budgets = {.area_mm2 = probe.area_mm2 * rng.uniform(0.5F, 1.5F),
                     .latency_ms = probe.latency_ms * rng.uniform(0.5F, 1.5F)};
    }
    if (c.form == CostForm::kFeasible) {
      c.budgets = {.area_mm2 = probe.area_mm2, .latency_ms = probe.latency_ms};
    }
    c.quantum = probe.edap() * rng.uniform(0.05F, 1.0F);
    return c;
  };
  gen.show = [](const CostCase& c) {
    std::ostringstream out;
    out << "form " << static_cast<int>(c.form) << " arch";
    for (const auto op : c.a) out << ' ' << static_cast<int>(op);
    out << " weights " << c.weights.lambda_l << ',' << c.weights.lambda_e
        << ',' << c.weights.lambda_a << " linear_base " << c.linear_base
        << " budgets " << c.budgets.area_mm2 << ',' << c.budgets.latency_ms
        << " quantum " << c.quantum;
    return out.str();
  };
  return gen;
}

/// Same config, metric bits and cost bits; empty when they agree.
std::string compare(const hwgen::HwSearchResult& got,
                    const hwgen::HwSearchResult& want) {
  if (!(got.config == want.config)) {
    return "config " + got.config.to_string() + " vs oracle " +
           want.config.to_string();
  }
  if (std::memcmp(&got.metrics, &want.metrics, sizeof(got.metrics)) != 0) {
    return "metric bits differ at " + want.config.to_string();
  }
  if (std::memcmp(&got.cost, &want.cost, sizeof(got.cost)) != 0) {
    return "cost bits differ: " + std::to_string(got.cost) + " vs oracle " +
           std::to_string(want.cost);
  }
  return "";
}

/// Metrics of `a` on every config in space order, summed straight from the
/// cost model in the table's association: the fixed layers, then each
/// slot's choice, each a left-to-right sum over its shapes.
std::vector<accel::CostMetrics> model_metrics(const arch::ArchSpace& space,
                                              const hwgen::HwSearchSpace& hw,
                                              const accel::CostModel& model,
                                              const arch::Architecture& a) {
  std::vector<std::vector<accel::ConvShape>> segments{space.fixed_shapes()};
  for (int slot = 0; slot < space.num_searchable(); ++slot) {
    segments.push_back(
        space.lower_choice(slot, a[static_cast<std::size_t>(slot)]));
  }
  std::vector<accel::CostMetrics> out;
  for (std::size_t ci = 0; ci < hw.size(); ++ci) {
    const accel::AcceleratorConfig config = hw.config_at(ci);
    double cycles = 0.0;
    double energy = 0.0;
    for (const auto& shapes : segments) {
      double seg_cycles = 0.0;
      double seg_energy = 0.0;
      for (const auto& shape : shapes) {
        const accel::LayerCost lc = model.layer_cost(config, shape);
        seg_cycles += lc.cycles;
        seg_energy += lc.energy_pj;
      }
      cycles += seg_cycles;
      energy += seg_energy;
    }
    out.push_back({.latency_ms = cycles / (model.tech().clock_ghz * 1e6),
                   .energy_mj = energy * 1e-9,
                   .area_mm2 = model.area_mm2(config)});
  }
  return out;
}

TEST(costtable_property, PrunedScanMatchesExhaustiveSearchOnSmallSpace) {
  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw = hwgen::HwSearchSpace::small();
  const accel::CostModel model;
  const arch::CostTable table(arch_space, hw, model);
  const hwgen::ExhaustiveSearch exhaustive(hw, model);
  const auto result = testing_::check<CostCase>(
      "pruned optimal vs ExhaustiveSearch", cost_case_gen(table),
      [&](const CostCase& c, util::Rng&) -> std::string {
        const accel::HwCostFn cost_fn = cost_of(c);
        const auto all = model_metrics(arch_space, hw, model, c.a);
        hwgen::HwSearchResult want = exhaustive.run_precomputed(all, cost_fn);
        // When no cost is below +inf, ExhaustiveSearch names no config;
        // CostTable::optimal's contract then names config 0.
        if (!(want.cost < std::numeric_limits<double>::infinity())) {
          want = {hw.config_at(0), all[0], want.cost};
        }
        return compare(table.optimal(c.a, cost_fn), want);
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(costtable_property, PrunedScanMatchesFullScanOnFullSpace) {
  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw;
  const accel::CostModel model;
  const arch::CostTable table(arch_space, hw, model);
  ASSERT_LT(table.scan_size(), hw.size());
  const auto result = testing_::check<CostCase>(
      "pruned optimal vs full metrics() scan", cost_case_gen(table),
      [&](const CostCase& c, util::Rng&) -> std::string {
        const accel::HwCostFn cost_fn = cost_of(c);
        const auto all = table.evaluate_all(c.a);
        hwgen::HwSearchResult want{hw.config_at(0), table.metrics(0, c.a),
                                   std::numeric_limits<double>::infinity()};
        for (std::size_t ci = 0; ci < hw.size(); ++ci) {
          const accel::CostMetrics m = table.metrics(ci, c.a);
          if (std::memcmp(&m, &all[ci], sizeof(m)) != 0) {
            return "evaluate_all differs from metrics() at config " +
                   std::to_string(ci);
          }
          const double cost = cost_fn(m);
          if (cost < want.cost) want = {hw.config_at(ci), m, cost};
        }
        return compare(table.optimal(c.a, cost_fn), want);
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

// --- the inlined EDAP scan against the HwCostFn scan ------------------------

TEST(costtable_property, EdapScanMatchesHwCostFnScan) {
  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const accel::CostModel model;
  // The small and the full space, plus a three-config space whose whole
  // scan is one partial chunk.
  const std::vector<hwgen::HwSearchSpace> spaces{
      hwgen::HwSearchSpace::small(), hwgen::HwSearchSpace(),
      hwgen::HwSearchSpace(
          {.pe_min = 8, .pe_max = 8, .rf_min = 8, .rf_max = 8, .rf_step = 8})};
  const accel::HwCostFn edap_fn = accel::edap_cost();
  bool partial_chunk = false;
  for (const hwgen::HwSearchSpace& hw : spaces) {
    const arch::CostTable table(arch_space, hw, model);
    // The scan runs 16 positions at a time; a remainder is a partial chunk.
    partial_chunk = partial_chunk || table.scan_size() % 16 != 0;
    const auto result = testing_::check<arch::Architecture>(
        "Edap scan vs HwCostFn scan and full metrics() scan",
        architecture_gen(),
        [&](const arch::Architecture& a, util::Rng&) -> std::string {
          const hwgen::HwSearchResult inlined = table.optimal(a, accel::Edap{});
          const std::string vs_fn = compare(inlined, table.optimal(a, edap_fn));
          if (!vs_fn.empty()) return "vs the HwCostFn scan: " + vs_fn;
          hwgen::HwSearchResult want{hw.config_at(0), table.metrics(0, a),
                                     std::numeric_limits<double>::infinity()};
          for (std::size_t ci = 0; ci < hw.size(); ++ci) {
            const accel::CostMetrics m = table.metrics(ci, a);
            if (m.edap() < want.cost) want = {hw.config_at(ci), m, m.edap()};
          }
          return compare(inlined, want);
        });
    EXPECT_TRUE(result.ok) << hw.size() << " configs: " << result.report;
    EXPECT_GE(result.trials_run, 100);
  }
  EXPECT_TRUE(partial_chunk) << "no space ends in a partial chunk";
}

// --- the pooled build against a serial build --------------------------------

TEST(costtable_property, PooledBuildBitIdenticalToSerial) {
  Env& e = env();
  // The pool-parallel sweep must land the exact bits of an inline serial
  // build, per shape, per lane split.
  const arch::CostTable serial = [&e] {
    const runtime::SerialGuard serial_only;
    return arch::CostTable(e.arch_space, e.hw_space, e.model);
  }();

  // The uniform architectures (op k in every slot) read the fixed rows, the
  // area and every slot's row for op k, so the seven of them read every
  // table cell, each through the order that maps it back to its config.
  for (int k = 0; k < arch::kNumCandidateOps; ++k) {
    const arch::Architecture a(
        static_cast<std::size_t>(e.arch_space.num_searchable()),
        arch::kAllCandidateOps[static_cast<std::size_t>(k)]);
    const auto pooled_all = e.table.evaluate_all(a);
    const auto serial_all = serial.evaluate_all(a);
    ASSERT_EQ(pooled_all.size(), serial_all.size());
    EXPECT_EQ(std::memcmp(pooled_all.data(), serial_all.data(),
                          pooled_all.size() * sizeof(accel::CostMetrics)),
              0)
        << "evaluate_all differs for uniform op " << k;
  }

  EXPECT_EQ(e.table.scan_size(), serial.scan_size());
  const auto cost_fn = accel::edap_cost();
  const auto result = testing_::check<arch::Architecture>(
      "pooled vs serial optimal", architecture_gen(),
      [&](const arch::Architecture& a, util::Rng&) -> std::string {
        return compare(e.table.optimal(a, cost_fn), serial.optimal(a, cost_fn));
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

}  // namespace

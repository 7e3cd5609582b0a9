// Property suite: the cost-table pipeline end to end.
//   - the pool-parallel table build is bit-identical to a serial build: every
//     table cell through evaluate_all, plus scan_size() and optimal() bits;
//   - the pruned vector scan in optimal() returns the config, metric bits and
//     cost bits of a full first-minimum scan, for every cost the API
//     accepts: EDAP, and Eq. 3 with random non-negative weights, zeros
//     included. Latency only {1,0,0}, area only {0,0,1} (area ignores the
//     dataflow, so many configs tie) and all zero {0,0,0} (every config
//     ties) are drawn as fixed cases. The oracles never touch the scan
//     order: hwgen::ExhaustiveSearch over metrics summed from the cost model
//     (small space), and a scalar full metrics(ci) scan written here, on the
//     small and the full space and on a three-config space whose whole scan
//     is one partial 16-position chunk.
// Suite name carries the "costtable" tag so `ctest -R costtable` includes
// this fuzz next to the example-based suites in tests/test_costtable.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
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

struct CostCase {
  arch::Architecture a;
  bool edap = false;
  accel::LinearCostWeights weights;  ///< Eq. 3 weights when !edap

  [[nodiscard]] accel::HwCost cost() const {
    return edap ? accel::edap_cost() : accel::linear_cost(weights);
  }

  /// The cost written out in scalar form, as the scan's oracle.
  [[nodiscard]] double scalar(const accel::CostMetrics& m) const {
    if (edap) return m.edap();
    return weights.lambda_l * m.latency_ms + weights.lambda_e * m.energy_mj +
           weights.lambda_a * m.area_mm2;
  }
};

/// Random architecture and cost: EDAP, Eq. 3 with random weights that are 0
/// a third of the time, or one of the fixed weight sets that force ties.
testing_::Generator<CostCase> cost_case_gen(const arch::ArchSpace& space) {
  testing_::Generator<CostCase> gen;
  gen.sample = [&space](util::Rng& rng) {
    CostCase c;
    c.a = space.random(rng);
    const auto weight = [&rng] {
      return rng.randint(0, 2) == 0
                 ? 0.0
                 : static_cast<double>(rng.uniform(0.0F, 10.0F));
    };
    switch (rng.randint(0, 4)) {
      case 0:
        c.edap = true;
        break;
      case 1:
        c.weights = {weight(), weight(), weight()};
        break;
      case 2:
        c.weights = {1.0, 0.0, 0.0};  // latency only
        break;
      case 3:
        c.weights = {0.0, 0.0, 1.0};  // area only
        break;
      default:
        c.weights = {0.0, 0.0, 0.0};  // every config ties
    }
    return c;
  };
  gen.show = [](const CostCase& c) {
    std::ostringstream out;
    out << (c.edap ? "EDAP" : "linear") << " arch";
    for (const auto op : c.a) out << ' ' << static_cast<int>(op);
    if (!c.edap) {
      out << " weights " << c.weights.lambda_l << ',' << c.weights.lambda_e
          << ',' << c.weights.lambda_a;
    }
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
      "pruned optimal vs ExhaustiveSearch", cost_case_gen(arch_space),
      [&](const CostCase& c, util::Rng&) -> std::string {
        const accel::HwCost cost = c.cost();
        const auto all = model_metrics(arch_space, hw, model, c.a);
        return compare(table.optimal(c.a, cost),
                       exhaustive.run_precomputed(all, cost));
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

/// optimal() against a scalar first-minimum scan over every config of the
/// table's space, in space order, with the cost written out in
/// CostCase::scalar.
testing_::CheckResult check_against_full_scan(const arch::CostTable& table) {
  const hwgen::HwSearchSpace& hw = table.hw_space();
  return testing_::check<CostCase>(
      "pruned optimal vs full metrics() scan",
      cost_case_gen(table.arch_space()),
      [&](const CostCase& c, util::Rng&) -> std::string {
        const auto all = table.evaluate_all(c.a);
        hwgen::HwSearchResult want{hw.config_at(0), table.metrics(0, c.a),
                                   std::numeric_limits<double>::infinity()};
        for (std::size_t ci = 0; ci < hw.size(); ++ci) {
          const accel::CostMetrics m = table.metrics(ci, c.a);
          if (std::memcmp(&m, &all[ci], sizeof(m)) != 0) {
            return "evaluate_all differs from metrics() at config " +
                   std::to_string(ci);
          }
          const double cost = c.scalar(m);
          if (cost < want.cost) want = {hw.config_at(ci), m, cost};
        }
        return compare(table.optimal(c.a, c.cost()), want);
      });
}

TEST(costtable_property, PrunedScanMatchesFullScanOnFullSpace) {
  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw;
  const accel::CostModel model;
  const arch::CostTable table(arch_space, hw, model);
  ASSERT_LT(table.scan_size(), hw.size());
  const auto result = check_against_full_scan(table);
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(costtable_property, PrunedScanMatchesFullScanOnSmallSpaces) {
  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const accel::CostModel model;
  // The small space, and a three-config space whose whole scan is one
  // partial chunk.
  const std::vector<hwgen::HwSearchSpace> spaces{
      hwgen::HwSearchSpace::small(),
      hwgen::HwSearchSpace(
          {.pe_min = 8, .pe_max = 8, .rf_min = 8, .rf_max = 8, .rf_step = 8})};
  bool partial_chunk = false;
  for (const hwgen::HwSearchSpace& hw : spaces) {
    const arch::CostTable table(arch_space, hw, model);
    // The scan runs 16 positions at a time; a remainder is a partial chunk.
    partial_chunk = partial_chunk || table.scan_size() % 16 != 0;
    const auto result = check_against_full_scan(table);
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

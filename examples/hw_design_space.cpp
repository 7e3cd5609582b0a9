// Explore the accelerator design space for a fixed network:
//   - compare the three dataflows on each layer type,
//   - extract the 3-objective Pareto front over the whole space,
//   - show how the optimal accelerator changes with the cost function.
//
// Run: ./build/examples/hw_design_space
#include <algorithm>
#include <cstdio>

#include "accel/cost_function.h"
#include "arch/space.h"
#include "hwgen/exhaustive.h"
#include "hwgen/pareto.h"
#include "util/table.h"

int main() {
  using namespace dance;

  arch::ArchSpace space(arch::cifar10_backbone());
  // A mixed architecture: some big ops, some small, one skipped layer.
  arch::Architecture net = {
      arch::CandidateOp::kMbConv3x3E3, arch::CandidateOp::kMbConv5x5E6,
      arch::CandidateOp::kZero,        arch::CandidateOp::kMbConv3x3E6,
      arch::CandidateOp::kMbConv7x7E3, arch::CandidateOp::kMbConv3x3E3,
      arch::CandidateOp::kMbConv5x5E3, arch::CandidateOp::kZero,
      arch::CandidateOp::kMbConv7x7E6};
  const auto layers = space.lower(net);

  accel::CostModel model;

  // 1. Dataflow comparison on a fixed 16x16 array.
  std::printf("Dataflow comparison on a 16x16 array, RF 32 (whole network):\n");
  util::Table df_table({"Dataflow", "Latency(ms)", "Energy(mJ)"});
  for (const auto df : accel::kAllDataflows) {
    const accel::AcceleratorConfig cfg{16, 16, 32, df};
    const auto m = model.network_cost(cfg, layers);
    df_table.add_row({accel::to_string(df), util::Table::fmt(m.latency_ms, 3),
                      util::Table::fmt(m.energy_mj, 3)});
  }
  std::printf("%s\n", df_table.to_string().c_str());

  // 2. Pareto front over the whole space.
  hwgen::HwSearchSpace hw_space;
  hwgen::ExhaustiveSearch search(hw_space, model);
  const auto all = search.evaluate_all(layers);
  auto front = hwgen::pareto_front(hw_space, all);
  std::sort(front.begin(), front.end(), [](const auto& a, const auto& b) {
    return a.metrics.latency_ms < b.metrics.latency_ms;
  });
  std::printf("Pareto front: %zu of %zu configurations. A sample:\n",
              front.size(), hw_space.size());
  util::Table pf({"Config", "Latency(ms)", "Energy(mJ)", "Area(mm^2)"});
  const std::size_t step = std::max<std::size_t>(1, front.size() / 8);
  for (std::size_t i = 0; i < front.size(); i += step) {
    const auto& p = front[i];
    pf.add_row({p.config.to_string(), util::Table::fmt(p.metrics.latency_ms, 3),
                util::Table::fmt(p.metrics.energy_mj, 3),
                util::Table::fmt(p.metrics.area_mm2, 2)});
  }
  std::printf("%s\n", pf.to_string().c_str());

  // 3. Optimal accelerator per cost function.
  std::printf("Optimal accelerator per cost function:\n");
  util::Table opt({"Cost function", "Config", "Latency(ms)", "Energy(mJ)",
                   "Area(mm^2)", "EDAP"});
  const auto report = [&](const char* name, const accel::HwCost& fn) {
    const auto best = search.run_precomputed(all, fn);
    opt.add_row({name, best.config.to_string(),
                 util::Table::fmt(best.metrics.latency_ms, 3),
                 util::Table::fmt(best.metrics.energy_mj, 3),
                 util::Table::fmt(best.metrics.area_mm2, 2),
                 util::Table::fmt(best.metrics.edap(), 3)});
  };
  report("EDAP", accel::edap_cost());
  report("linear (paper Table 2)", accel::linear_cost());
  report("latency-only", accel::linear_cost({1.0, 0.0, 0.0}));
  report("energy-only", accel::linear_cost({0.0, 1.0, 0.0}));
  report("area-only", accel::linear_cost({0.0, 0.0, 1.0}));
  std::printf("%s", opt.to_string().c_str());
  return 0;
}

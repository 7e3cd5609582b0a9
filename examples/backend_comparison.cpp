// Compare the two accelerator evaluation backends — the Timeloop-style
// analytical model and the ScaleSim-style systolic simulator — on the same
// network across dataflows and array sizes. The absolute numbers differ (one
// is closed-form, the other walks tiles and pays pipeline fill/drain), but
// the orderings that drive co-exploration agree.
//
// Run: ./build/examples/backend_comparison
#include <cstdio>

#include "accel/cost_model.h"
#include "accel/systolic_sim.h"
#include "arch/space.h"
#include "util/table.h"

int main() {
  using namespace dance;

  arch::ArchSpace space(arch::cifar10_backbone());
  const arch::Architecture net(9, arch::CandidateOp::kMbConv5x5E3);
  const auto layers = space.lower(net);

  accel::CostModel model;
  accel::SystolicSimulator sim;

  std::printf("Backend comparison on %zu conv layers (%.1f MMACs)\n\n",
              layers.size(), static_cast<double>(space.macs(net)) / 1e6);

  util::Table t({"Config", "Analytical lat(ms)", "Simulated lat(ms)",
                 "Analytical E(mJ)", "Simulated E(mJ)"});
  for (const auto df : accel::kAllDataflows) {
    for (const int pe : {8, 16, 24}) {
      const accel::AcceleratorConfig cfg{pe, pe, 32, df};
      const auto ana = model.network_cost(cfg, layers);
      const auto s = sim.simulate_network(cfg, layers);
      t.add_row({cfg.to_string(), util::Table::fmt(ana.latency_ms, 3),
                 util::Table::fmt(s.latency_ms, 3),
                 util::Table::fmt(ana.energy_mj, 3),
                 util::Table::fmt(s.energy_mj, 3)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  // Per-layer bottleneck report from the analytical model's breakdown.
  std::printf("Per-layer bottlenecks on a 16x16 RS array (first 8 layers):\n");
  util::Table b({"Layer", "MACs(K)", "Bottleneck", "Compute(cyc)", "GB(cyc)",
                 "DRAM(cyc)"});
  const accel::AcceleratorConfig cfg{16, 16, 32,
                                     accel::Dataflow::kRowStationary};
  for (std::size_t i = 0; i < layers.size() && i < 8; ++i) {
    const auto bd = model.explain(cfg, layers[i]);
    b.add_row({layers[i].to_string().substr(0, 40),
               util::Table::fmt(static_cast<double>(layers[i].macs()) / 1e3, 0),
               bd.bottleneck(), util::Table::fmt(bd.compute_cycles, 0),
               util::Table::fmt(bd.gb_cycles, 0),
               util::Table::fmt(bd.dram_cycles, 0)});
  }
  std::printf("%s\n", b.to_string().c_str());
  return 0;
}

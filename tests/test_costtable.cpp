// Batched cost-model evaluation, the path every cost-table build runs on.
// Suite names carry the "costtable" tag so `ctest -R costtable` runs exactly
// these suites plus the property fuzz (tests/test_property_costtable.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "accel/cost_model.h"
#include "util/rng.h"

namespace {

using namespace dance;

std::vector<accel::ConvShape> probe_shapes() {
  return {
      // dense 3x3, odd channel counts (non-power-of-two divides)
      {.n = 1, .k = 96, .c = 36, .h = 17, .w = 17, .r = 3, .s = 3, .stride = 1, .groups = 1},
      // depthwise 5x5 stride 2 (groups == c, the MBConv middle stage)
      {.n = 1, .k = 144, .c = 144, .h = 28, .w = 28, .r = 5, .s = 5, .stride = 2, .groups = 144},
      // pointwise expansion
      {.n = 4, .k = 240, .c = 40, .h = 14, .w = 14, .r = 1, .s = 1, .stride = 1, .groups = 1},
      // grouped conv, groups neither 1 nor c
      {.n = 2, .k = 48, .c = 24, .h = 31, .w = 29, .r = 3, .s = 7, .stride = 2, .groups = 12},
  };
}

std::vector<accel::AcceleratorConfig> probe_configs() {
  using accel::Dataflow;
  return {
      {8, 8, 4, Dataflow::kWeightStationary},
      {16, 16, 32, Dataflow::kOutputStationary},
      {24, 24, 64, Dataflow::kRowStationary},
      {11, 13, 24, Dataflow::kOutputStationary},
  };
}

// --- batched evaluation -----------------------------------------------------

TEST(costtable_batch, BatchMatchesPerLayerBitwise) {
  util::Rng rng(0xba7c);
  const accel::CostModel model;
  for (const auto& cfg : probe_configs()) {
    std::vector<accel::ConvShape> shapes;
    for (int i = 0; i < 40; ++i) {  // > the 32-shape network_cost chunk
      auto s = probe_shapes()[static_cast<std::size_t>(rng.randint(0, 3))];
      s.h = rng.randint(1, 32);
      s.w = rng.randint(1, 32);
      shapes.push_back(s);
    }
    std::vector<accel::LayerCost> batch(shapes.size());
    model.layer_cost_batch(cfg, shapes, batch);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const auto one = model.layer_cost(cfg, shapes[i]);
      EXPECT_EQ(std::memcmp(&one, &batch[i], sizeof(one)), 0) << "layer " << i;
    }
    // network_cost is routed through the same batch path; its sums must
    // match the per-layer accumulation exactly (same order, same terms).
    const auto net = model.network_cost(cfg, shapes);
    double cycles = 0.0;
    double pj = 0.0;
    for (const auto& lc : batch) {
      cycles += lc.cycles;
      pj += lc.energy_pj;
    }
    EXPECT_EQ(net.latency_ms, cycles / (model.tech().clock_ghz * 1e6));
    EXPECT_EQ(net.energy_mj, pj * 1e-9);
  }
}

TEST(costtable_batch, RejectsShortOutputSpan) {
  const accel::CostModel model;
  const std::vector<accel::ConvShape> shapes(3);
  std::vector<accel::LayerCost> out(2);
  EXPECT_THROW(
      model.layer_cost_batch(accel::AcceleratorConfig{}, shapes, out),
      std::invalid_argument);
}

}  // namespace

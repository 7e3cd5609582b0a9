// Batched cost-model evaluation and the DCTB cost-table artifact pipeline.
// Suite names carry the "costtable" tag so `ctest -R costtable` runs exactly
// these suites plus the property fuzz (tests/test_property_costtable.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "accel/cost_function.h"
#include "accel/cost_model.h"
#include "arch/cost_artifact.h"
#include "arch/cost_table.h"
#include "util/fs.h"
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

// --- DCTB artifact save / load ----------------------------------------------

struct costtable_artifact : ::testing::Test {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space{
      {.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32, .rf_step = 8}};
  accel::CostModel model;
  std::string path;

  void SetUp() override {
    path = ::testing::TempDir() + "costtable_artifact_" +
           std::to_string(getpid()) + ".dctb";
  }
  void TearDown() override { std::remove(path.c_str()); }

  [[nodiscard]] std::string slurp() const {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void dump(const std::string& bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// FNV-1a over everything before the trailer — same function the artifact
  /// uses, reimplemented here so header-field tests can re-seal a tampered
  /// file and reach the structural checks behind the checksum gate.
  static std::uint64_t fnv1a(const std::string& bytes, std::size_t len) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(bytes[i]);
      h *= 1099511628211ULL;
    }
    return h;
  }
  void reseal(std::string& bytes) const {
    const std::uint64_t h = fnv1a(bytes, bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 8, &h, 8);
  }
};

TEST_F(costtable_artifact, RoundTripIsBitIdentical) {
  const arch::CostTable table =
      arch::build_cost_table(arch_space, hw_space, model);
  const std::uint64_t checksum = arch::save_cost_table(table, path);
  const auto mapped = arch::load_cost_table(path, arch_space);
  EXPECT_EQ(mapped->checksum(), checksum);
  EXPECT_EQ(mapped->path(), path);
  EXPECT_EQ(mapped->hw_space().size(), hw_space.size());
  EXPECT_GT(mapped->mapped_bytes(), 0U);

  util::Rng rng(0xdc7b);
  const auto cost_fn = accel::edap_cost();
  for (int trial = 0; trial < 8; ++trial) {
    const arch::Architecture a = arch_space.random(rng);
    const auto mem = table.evaluate_all(a);
    const auto mm = mapped->evaluate_all(a);
    ASSERT_EQ(mem.size(), mm.size());
    EXPECT_EQ(std::memcmp(mem.data(), mm.data(),
                          mem.size() * sizeof(accel::CostMetrics)),
              0);
    const auto best_mem = table.optimal(a, cost_fn);
    const auto best_mm = mapped->optimal(a, cost_fn);
    EXPECT_EQ(best_mem.config, best_mm.config);
    EXPECT_EQ(best_mem.cost, best_mm.cost);
  }
}

TEST_F(costtable_artifact, ChecksumMismatchCarriesDiagnostics) {
  const arch::CostTable table =
      arch::build_cost_table(arch_space, hw_space, model);
  const std::uint64_t checksum = arch::save_cost_table(table, path);
  std::string bytes = slurp();
  bytes[bytes.size() / 2] ^= 0x40;  // one payload bit flip
  dump(bytes);
  try {
    (void)arch::load_cost_table(path, arch_space);
    FAIL() << "corrupt artifact was accepted";
  } catch (const arch::ArtifactError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.expected_checksum(), checksum);
    EXPECT_NE(e.actual_checksum(), checksum);
    EXPECT_EQ(e.offset(), bytes.size() - 8);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST_F(costtable_artifact, CorruptionAnywhereIsRejected) {
  const arch::CostTable table =
      arch::build_cost_table(arch_space, hw_space, model);
  arch::save_cost_table(table, path);
  const std::string good = slurp();
  // Every header byte, a stride through the payload, and the trailer: a
  // single flipped bit anywhere must be caught before the first query.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 72; ++i) offsets.push_back(i);
  for (std::size_t i = 72; i < good.size() - 8; i += 4093) offsets.push_back(i);
  for (std::size_t i = good.size() - 8; i < good.size(); ++i)
    offsets.push_back(i);
  for (const std::size_t at : offsets) {
    std::string bad = good;
    bad[at] ^= 0x01;
    dump(bad);
    EXPECT_THROW((void)arch::load_cost_table(path, arch_space),
                 arch::ArtifactError)
        << "flip at offset " << at << " was accepted";
  }
}

TEST_F(costtable_artifact, TruncationAndTrailingBytesAreRejected) {
  const arch::CostTable table =
      arch::build_cost_table(arch_space, hw_space, model);
  arch::save_cost_table(table, path);
  const std::string good = slurp();
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{10}, std::size_t{63}, std::size_t{64},
        good.size() / 2, good.size() - 9, good.size() - 1}) {
    dump(good.substr(0, len));
    EXPECT_THROW((void)arch::load_cost_table(path, arch_space),
                 arch::ArtifactError)
        << "truncation to " << len << " bytes was accepted";
  }
  dump(good + std::string(8, '\0'));
  EXPECT_THROW((void)arch::load_cost_table(path, arch_space),
               arch::ArtifactError)
      << "trailing garbage was accepted";
}

TEST_F(costtable_artifact, StructuralMismatchesAreRejected) {
  const arch::CostTable table =
      arch::build_cost_table(arch_space, hw_space, model);
  arch::save_cost_table(table, path);
  const std::string good = slurp();

  const auto expect_reject_at = [&](std::size_t offset, std::uint32_t value) {
    std::string bad = good;
    std::memcpy(bad.data() + offset, &value, sizeof(value));
    reseal(bad);  // valid checksum: the structural check must fire, not it
    dump(bad);
    try {
      (void)arch::load_cost_table(path, arch_space);
      FAIL() << "mismatch at offset " << offset << " was accepted";
    } catch (const arch::ArtifactError& e) {
      EXPECT_EQ(e.offset(), offset) << e.what();
    }
  };

  expect_reject_at(0, 0x42545344);   // wrong magic
  expect_reject_at(4, 3);            // unknown version
  expect_reject_at(4, 1);            // DCTB-v1 has no scan order
  expect_reject_at(8, 8);            // table built for a different slot count
  expect_reject_at(12, 5);           // different candidate-op set
  expect_reject_at(44, 9 * 5);       // encoding width of a different space
}

/// DCTB-v2 offsets the scan-order tests tamper with (docs/cost_table.md).
struct ScanLayout {
  std::size_t configs = 0;
  std::size_t rows = 0;  ///< f64 rows of `configs` values each
  std::size_t kept = 0;
  std::size_t order_at = 0;

  explicit ScanLayout(const std::string& bytes) {
    std::uint32_t slots = 0;
    std::memcpy(&slots, bytes.data() + 8, 4);
    std::memcpy(&configs, bytes.data() + 16, 8);
    std::memcpy(&kept, bytes.data() + 64, 8);
    rows = 3 + 2 * static_cast<std::size_t>(slots) * arch::kNumCandidateOps;
    order_at = 72 + rows * configs * sizeof(double);
  }
  [[nodiscard]] std::size_t entry(std::size_t p) const {
    return order_at + p * sizeof(std::uint32_t);
  }
  [[nodiscard]] std::uint32_t order(const std::string& bytes,
                                    std::size_t p) const {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + entry(p), 4);
    return v;
  }
  void set_order(std::string& bytes, std::size_t p, std::uint32_t v) const {
    std::memcpy(bytes.data() + entry(p), &v, 4);
  }
};

TEST_F(costtable_artifact, ScanOrderDefectsAreRejectedAtTheirOffset) {
  const arch::CostTable table =
      arch::build_cost_table(arch_space, hw_space, model);
  arch::save_cost_table(table, path);
  const std::string good = slurp();
  const ScanLayout l(good);
  ASSERT_EQ(l.kept, table.scan_size());
  ASSERT_GE(l.kept, 3U);
  ASSERT_GE(l.configs - l.kept, 2U);
  ASSERT_EQ(l.order(good, 0), 0U);  // config 0 has no lower-index dominator

  const auto expect_reject = [&](const std::string& bad, std::size_t offset,
                                 const std::string& what) {
    std::string sealed = bad;
    reseal(sealed);  // valid checksum: the order check must fire, not it
    dump(sealed);
    try {
      (void)arch::load_cost_table(path, arch_space);
      FAIL() << what << " was accepted";
    } catch (const arch::ArtifactError& e) {
      EXPECT_EQ(e.offset(), offset) << what << ": " << e.what();
    }
  };
  const auto swapped = [&](std::size_t p, std::size_t q) {
    std::string bad = good;
    const std::uint32_t at_p = l.order(good, p);
    l.set_order(bad, p, l.order(good, q));
    l.set_order(bad, q, at_p);
    return bad;
  };

  std::string bad = good;
  l.set_order(bad, 1, l.order(good, 0));
  expect_reject(bad, l.entry(1), "a repeated config");
  bad = good;
  l.set_order(bad, 2, static_cast<std::uint32_t>(l.configs));
  expect_reject(bad, l.entry(2), "an out-of-range config");
  expect_reject(swapped(1, 2), l.entry(2), "a descending kept prefix");
  expect_reject(swapped(l.kept, l.kept + 1), l.entry(l.kept + 1),
                "a descending pruned suffix");
  for (const std::uint64_t kept : {std::uint64_t{0}, l.configs + 1}) {
    bad = good;
    std::memcpy(bad.data() + 64, &kept, 8);
    expect_reject(bad, 64, "kept length " + std::to_string(kept));
  }

  // A well-formed file whose rows agree with its order, but which lists a
  // kept config as pruned: only re-deriving the kept set can catch it.
  const std::uint32_t moved = l.order(good, 1);
  std::vector<std::uint32_t> order;
  for (std::size_t p = 0; p < l.configs; ++p) {
    if (p != 1) order.push_back(l.order(good, p));
  }
  const auto suffix = order.begin() + static_cast<long>(l.kept - 1);
  const auto slot = std::lower_bound(suffix, order.end(), moved);
  const auto moved_to = static_cast<std::size_t>(slot - order.begin());
  order.insert(slot, moved);
  bad = good;
  for (std::size_t r = 0; r < l.rows; ++r) {
    const std::size_t row_at = 72 + r * l.configs * sizeof(double);
    std::vector<double> by_config(l.configs);
    for (std::size_t p = 0; p < l.configs; ++p) {
      std::memcpy(&by_config[l.order(good, p)],
                  good.data() + row_at + p * sizeof(double), sizeof(double));
    }
    for (std::size_t p = 0; p < l.configs; ++p) {
      std::memcpy(bad.data() + row_at + p * sizeof(double),
                  &by_config[order[p]], sizeof(double));
    }
  }
  for (std::size_t p = 0; p < l.configs; ++p) l.set_order(bad, p, order[p]);
  const std::uint64_t kept = l.kept - 1;
  std::memcpy(bad.data() + 64, &kept, 8);
  expect_reject(bad, l.entry(moved_to), "a kept config listed as pruned");
}

TEST_F(costtable_artifact, OddConfigCountPadsTheOrder) {
  // Three configs: a 12-byte order array, padded to 16 so the checksum
  // stays 8-byte aligned. The f64 arrays come first and stay aligned.
  const hwgen::HwSearchSpace tiny(
      {.pe_min = 8, .pe_max = 8, .rf_min = 8, .rf_max = 8, .rf_step = 8});
  const arch::CostTable table = arch::build_cost_table(arch_space, tiny, model);
  arch::save_cost_table(table, path);
  const std::string good = slurp();
  const ScanLayout l(good);
  ASSERT_EQ(l.configs, 3U);
  EXPECT_EQ(good.size(), l.order_at + 16 + 8);

  const auto mapped = arch::load_cost_table(path, arch_space);
  util::Rng rng(0x0dd);
  const arch::Architecture a = arch_space.random(rng);
  const auto mem = table.evaluate_all(a);
  const auto mm = mapped->evaluate_all(a);
  EXPECT_EQ(std::memcmp(mem.data(), mm.data(),
                        mem.size() * sizeof(accel::CostMetrics)),
            0);

  std::string bad = good;
  bad[l.order_at + 13] = 1;
  reseal(bad);
  dump(bad);
  try {
    (void)arch::load_cost_table(path, arch_space);
    FAIL() << "non-zero padding was accepted";
  } catch (const arch::ArtifactError& e) {
    EXPECT_EQ(e.offset(), l.order_at + 13) << e.what();
  }
}

TEST_F(costtable_artifact, MissingFileIsRejected) {
  try {
    (void)arch::load_cost_table(path + ".does-not-exist", arch_space);
    FAIL() << "missing file was accepted";
  } catch (const arch::ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_EQ(e.path(), path + ".does-not-exist");
  }
}

}  // namespace

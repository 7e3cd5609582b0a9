// Property suite: the cost-table pipeline end to end. Fuzzes the claims the
// DCTB artifact makes (src/arch/cost_artifact.h):
//   - an MmapCostTable answers bit-identically to the in-memory CostTable
//     it was compiled from, on randomized architectures;
//   - the pool-parallel table build is bit-identical to a serial build
//     (checksum equality over the whole storage);
//   - a random single-byte corruption anywhere in a DCTB file is rejected
//     before anything is served from it.
// Suite name carries the "costtable" tag so `ctest -R costtable` includes
// this fuzz next to the example-based suites in tests/test_costtable.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "accel/cost_function.h"
#include "accel/cost_model.h"
#include "arch/cost_artifact.h"
#include "arch/cost_table.h"
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

struct MappedEnv {
  std::string path;
  std::unique_ptr<arch::MmapCostTable> mapped;

  MappedEnv() {
    path = ::testing::TempDir() + "costtable_property_" +
           std::to_string(getpid()) + ".dctb";
    arch::save_cost_table(env().table, path);
    mapped = arch::load_cost_table(path, env().arch_space);
  }
  ~MappedEnv() { std::remove(path.c_str()); }
};

MappedEnv& mapped_env() {
  static MappedEnv m;
  return m;
}

TEST(costtable_property, MmapBitIdenticalToInMemoryOnRandomArchs) {
  Env& e = env();
  const arch::MmapCostTable& mapped = *mapped_env().mapped;
  const auto cost_fn = accel::edap_cost();
  const auto result = testing_::check<arch::Architecture>(
      "mmap vs in-memory cost table", architecture_gen(),
      [&](const arch::Architecture& a, util::Rng&) -> std::string {
        const auto mem = e.table.evaluate_all(a);
        const auto mm = mapped.evaluate_all(a);
        if (mem.size() != mm.size()) return "evaluate_all size mismatch";
        if (std::memcmp(mem.data(), mm.data(),
                        mem.size() * sizeof(accel::CostMetrics)) != 0) {
          return "evaluate_all not bit-identical";
        }
        const auto best_mem = e.table.optimal(a, cost_fn);
        const auto best_mm = mapped.optimal(a, cost_fn);
        if (!(best_mem.config == best_mm.config) ||
            best_mem.cost != best_mm.cost) {
          return "optimal() disagrees";
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(costtable_property, PooledBuildBitIdenticalToSerial) {
  Env& e = env();
  // Checksum equality over the serialized image is a complete comparison of
  // every table entry: the parallel_for sweep must land the exact same
  // bits as an inline serial build, per shape, per lane split.
  const std::string pooled_path = ::testing::TempDir() + "costtable_pooled_" +
                                  std::to_string(getpid()) + ".dctb";
  const std::string serial_path = ::testing::TempDir() + "costtable_serial_" +
                                  std::to_string(getpid()) + ".dctb";
  const std::uint64_t pooled_sum =
      arch::save_cost_table(e.table, pooled_path);
  {
    const runtime::SerialGuard serial;
    const arch::CostTable serial_table =
        arch::build_cost_table(e.arch_space, e.hw_space, e.model);
    const std::uint64_t serial_sum =
        arch::save_cost_table(serial_table, serial_path);
    EXPECT_EQ(pooled_sum, serial_sum);
  }
  std::remove(pooled_path.c_str());
  std::remove(serial_path.c_str());
}

TEST(costtable_property, SingleByteCorruptionAnywhereIsRejected) {
  MappedEnv& m = mapped_env();
  std::string good;
  {
    std::ifstream in(m.path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(good.size(), 72U);
  const std::string bad_path = ::testing::TempDir() + "costtable_corrupt_" +
                               std::to_string(getpid()) + ".dctb";

  struct Flip {
    std::size_t offset = 0;
    unsigned char bits = 1;
  };
  testing_::Generator<Flip> flip_gen;
  flip_gen.sample = [&](util::Rng& rng) {
    return Flip{static_cast<std::size_t>(
                    rng.randint(0, static_cast<int>(good.size()) - 1)),
                static_cast<unsigned char>(rng.randint(1, 255))};
  };
  flip_gen.show = [](const Flip& f) {
    return "offset " + std::to_string(f.offset) + " xor " +
           std::to_string(static_cast<int>(f.bits));
  };

  const auto result = testing_::check<Flip>(
      "single-byte DCTB corruption", flip_gen,
      [&](const Flip& f, util::Rng&) -> std::string {
        std::string bad = good;
        bad[f.offset] = static_cast<char>(
            static_cast<unsigned char>(bad[f.offset]) ^ f.bits);
        {
          std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
          out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
        }
        try {
          (void)arch::load_cost_table(bad_path, env().arch_space);
          return "corrupt artifact was accepted";
        } catch (const arch::ArtifactError&) {
          return "";
        }
      });
  std::remove(bad_path.c_str());
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

}  // namespace

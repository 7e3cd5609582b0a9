// Offline cost-table compiler: enumerates the full (slot, op, config)
// space through the analytical model and writes a DCTB-v2 artifact that
// serve_jsonl / serve_cluster can mmap at startup (--table=PATH) instead of
// rebuilding the table per process. See docs/cost_table.md.
//
// Flags:
//   --out=PATH   destination file (required; written atomically)
//   --small      tiny hardware space (CI smoke; must match the consumer's
//                --small — the artifact records the space either way)
//   --verify     reload the written artifact and check every (config, op)
//                entry answers bit-identically to the in-memory table
//
// Example:
//   ./build/examples/costtable_compile --out=cost.dctb --verify
//   ./build/examples/serve_jsonl --backend=exact --table=cost.dctb
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "accel/cost_model.h"
#include "arch/cost_artifact.h"
#include "arch/cost_table.h"
#include "util/cli.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dance;
  std::string out_path;
  bool small = false;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = util::flag_value(argv[i], "--out=")) {
      out_path = v;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "usage: costtable_compile --out=PATH [--small] [--verify]\n");
    return 2;
  }

  arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw_space =
      small ? hwgen::HwSearchSpace::small() : hwgen::HwSearchSpace();
  const accel::CostModel model;

  const auto t_build = std::chrono::steady_clock::now();
  const arch::CostTable table = arch::build_cost_table(arch_space, hw_space, model);
  const double build_ms = ms_since(t_build);

  try {
    const auto t_save = std::chrono::steady_clock::now();
    const std::uint64_t checksum = arch::save_cost_table(table, out_path);
    const double save_ms = ms_since(t_save);
    std::fprintf(stderr,
                 "[costtable_compile] configs=%zu slots=%d build_ms=%.1f "
                 "save_ms=%.1f\n",
                 hw_space.size(), arch_space.num_searchable(), build_ms,
                 save_ms);
    // stdout carries the machine-readable line (CI captures it).
    std::printf("path=%s checksum=%016llx\n", out_path.c_str(),
                static_cast<unsigned long long>(checksum));

    if (verify) {
      const auto t_load = std::chrono::steady_clock::now();
      const auto mapped = arch::load_cost_table(out_path, arch_space);
      const double load_ms = ms_since(t_load);
      // Bit-exact sweep: every config of every single-op architecture, plus
      // the area/latency/energy conversions, through both providers.
      for (int op = 0; op < arch::kNumCandidateOps; ++op) {
        arch::Architecture a(
            static_cast<std::size_t>(arch_space.num_searchable()),
            arch::kAllCandidateOps[static_cast<std::size_t>(op)]);
        const auto mem = table.evaluate_all(a);
        const auto mm = mapped->evaluate_all(a);
        for (std::size_t ci = 0; ci < mem.size(); ++ci) {
          if (std::memcmp(&mem[ci].latency_ms, &mm[ci].latency_ms,
                          sizeof(double)) != 0 ||
              std::memcmp(&mem[ci].energy_mj, &mm[ci].energy_mj,
                          sizeof(double)) != 0 ||
              std::memcmp(&mem[ci].area_mm2, &mm[ci].area_mm2,
                          sizeof(double)) != 0) {
            std::fprintf(stderr,
                         "[costtable_compile] VERIFY FAILED at op=%d config=%zu\n",
                         op, ci);
            return 1;
          }
        }
      }
      std::fprintf(stderr,
                   "[costtable_compile] verify ok: mmap load_ms=%.2f, "
                   "bit-identical to in-memory table\n",
                   load_ms);
    }
  } catch (const arch::ArtifactError& e) {
    std::fprintf(stderr, "[costtable_compile] %s\n", e.what());
    return 1;
  }
  return 0;
}

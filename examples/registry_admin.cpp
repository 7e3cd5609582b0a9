// Admin CLI for the dance::registry checkpoint registry (docs/registry.md).
//
// Commands:
//   registry_admin init DIR
//       Create an empty registry MANIFEST in DIR (DIR must exist).
//   registry_admin publish DIR MODEL [--small] [--candidate] [--seed=N]
//                  [--hwgen-ckpt=PATH] [--cost-ckpt=PATH]
//       Publish the next generation of MODEL: an evaluator is constructed
//       (seeded randomly with --seed, or loaded from the given checkpoints),
//       its checkpoints are written into DIR and the MANIFEST is updated
//       atomically. By default the generation goes live; --candidate stages
//       it for shadow A/B instead. Running servers pick the change up via
//       SIGHUP or the {"cmd": "reload"} wire command.
//   registry_admin promote DIR MODEL
//       Promote MODEL's staged candidate to live.
//   registry_admin list DIR
//       Print every model with its generations and live/candidate marks.
//
// The tool shares the serving processes' registry code, so everything it
// writes is exactly what a shard will load.
#include <cstdio>
#include <cstring>
#include <string>

#include "arch/space.h"
#include "evalnet/evaluator.h"
#include "hwgen/search_space.h"
#include "registry/registry.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace dance;

int usage() {
  std::fprintf(stderr,
               "usage: registry_admin init DIR\n"
               "       registry_admin publish DIR MODEL [--small] "
               "[--candidate] [--seed=N] [--hwgen-ckpt=P] [--cost-ckpt=P]\n"
               "       registry_admin promote DIR MODEL [--small]\n"
               "       registry_admin list DIR [--small]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string dir = argv[2];

  try {
    if (cmd == "init") {
      registry::ModelRegistry::init(dir);
      std::printf("initialized empty registry in %s\n", dir.c_str());
      return 0;
    }

    std::string model_name;
    std::string hwgen_ckpt;
    std::string cost_ckpt;
    bool small = false;
    bool candidate = false;
    unsigned long long seed = 17;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--small") == 0) {
        small = true;
      } else if (std::strcmp(argv[i], "--candidate") == 0) {
        candidate = true;
      } else if (const char* v = util::flag_value(argv[i], "--seed=")) {
        seed = std::strtoull(v, nullptr, 0);
      } else if (const char* v = util::flag_value(argv[i], "--hwgen-ckpt=")) {
        hwgen_ckpt = v;
      } else if (const char* v = util::flag_value(argv[i], "--cost-ckpt=")) {
        cost_ckpt = v;
      } else if (model_name.empty() && argv[i][0] != '-') {
        model_name = argv[i];
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        return 2;
      }
    }
    // `list`/`promote` allow MODEL as argv[3] too (parsed above); `publish`
    // requires it.
    if ((cmd == "publish" || cmd == "promote") && model_name.empty()) {
      if (argc > 3 && argv[3][0] != '-') model_name = argv[3];
      if (model_name.empty()) return usage();
    }

    const hwgen::HwSearchSpace hw_space =
        small ? hwgen::HwSearchSpace::small() : hwgen::HwSearchSpace();
    registry::ModelRegistry reg(dir, hw_space);

    if (cmd == "publish") {
      arch::ArchSpace arch_space(arch::cifar10_backbone());
      util::Rng rng(seed);
      evalnet::Evaluator evaluator(arch_space.encoding_width(), hw_space, rng);
      if (!hwgen_ckpt.empty()) evaluator.hwgen_net().load(hwgen_ckpt);
      if (!cost_ckpt.empty()) evaluator.cost_net().load(cost_ckpt);
      const std::uint64_t gen = reg.publish(model_name, evaluator, candidate);
      std::printf("published %s generation %llu (%s)\n", model_name.c_str(),
                  static_cast<unsigned long long>(gen),
                  candidate ? "candidate" : "live");
      return 0;
    }
    if (cmd == "promote") {
      const std::uint64_t gen = reg.promote(model_name);
      if (gen == 0) {
        std::fprintf(stderr, "%s has no staged candidate\n",
                     model_name.c_str());
        return 1;
      }
      std::printf("promoted %s generation %llu to live\n", model_name.c_str(),
                  static_cast<unsigned long long>(gen));
      return 0;
    }
    if (cmd == "list") {
      for (const auto& name : reg.models()) {
        std::printf("%s live=%llu\n", name.c_str(),
                    static_cast<unsigned long long>(reg.live_generation(name)));
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "registry_admin: %s\n", e.what());
    return 1;
  }
  return usage();
}

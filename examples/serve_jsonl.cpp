// JSON-lines front-end for the dance::serve cost-query service.
//
// Reads one request per line from stdin, answers one JSON object per line on
// stdout, and prints the service stats report to stderr at EOF. The request,
// response and error forms are the wire protocol of src/serve/wire.h, e.g.
//   {"id": 1, "arch": [0, 3, 6, 0, 1, 2, 4, 5, 0]}   per-slot op indices
// Malformed lines get an error line and processing continues; "degraded"
// is always false (wire.h says why the key stays). Both modes build their
// backends with serve::make_backend and answer through serve::wire's one
// per-line pipeline; the registry mode plugs in registry::Frontend.
//
// Flags:
//   --backend=exact|surrogate  ground-truth LUT (default) or the evaluator
//                              (served through its compiled infer::Plan)
//   --small                    tiny hardware space (fast startup; CI smoke)
//   --table=PATH               mmap a compiled DCTB cost table (see
//                              costtable_compile) instead of rebuilding the
//                              exact table at startup; the artifact defines
//                              the hardware space. Answers are byte-identical
//                              to the in-memory build. Used by the exact
//                              backend and the --recalibrate oracle.
//   --hwgen-ckpt=PATH          load HwGenNet weights  (surrogate only)
//   --cost-ckpt=PATH           load CostNet weights   (surrogate only)
//   --registry=DIR             serve from a model registry (docs/registry.md)
//                              instead of a single backend: requests pin the
//                              live generation of --model (or the request's
//                              own "model" field), {"cmd": "reload"} and
//                              SIGHUP hot-swap externally published
//                              generations, and responses carry
//                              "generation". Mutually exclusive with
//                              --backend. Shadow A/B mirroring follows
//                              DANCE_REGISTRY_SHADOW_PCT.
//   --model=NAME               default model for --registry (default:
//                              "default")
//   --recalibrate              with --registry: label served queries with
//                              exact ground truth on a background thread and
//                              publish fine-tuned candidate generations
//                              (DANCE_REGISTRY_RECAL_* knobs)
//
// Examples:
//   printf '{"id":1,"arch":[0,1,2,3,4,5,6,0,1]}\n' |
//     ./build/examples/serve_jsonl --backend=exact --small
//   ./build/examples/serve_jsonl --backend=surrogate
//     --hwgen-ckpt=evaluator_hwgen.ckpt --cost-ckpt=evaluator_cost.ckpt < q.jsonl
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "arch/cost_artifact.h"
#include "obs/span.h"
#include "registry/recalibrate.h"
#include "registry/registry.h"
#include "registry/serving.h"
#include "registry/shadow.h"
#include "serve/service.h"
#include "serve/stack.h"
#include "serve/wire.h"
#include "util/cli.h"
#include "util/env.h"

namespace {

using namespace dance;

volatile std::sig_atomic_t g_reload_requested = 0;

void on_sighup(int) { g_reload_requested = 1; }

/// SIGHUP triggers a registry reload between lines. SA_RESTART keeps the
/// blocking getline from failing with EINTR mid-stream.
void arm_sighup() {
  struct sigaction sa{};
  sa.sa_handler = on_sighup;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGHUP, &sa, nullptr);
}

struct Args {
  serve::BackendSpec backend;
  std::string registry_dir;
  std::string model = "default";
  bool small = false;
  bool recalibrate = false;
};

/// The stdin loop; `answer` returns "" for lines owed no response.
template <class Answer>
void serve_stdin(Answer&& answer) {
  obs::ScopedSpan stream_span("serve_jsonl.stream");
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string out = answer(line);
    if (out.empty()) continue;
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
}

/// Registry mode: pinned generations, hot reload, shadow A/B, optional
/// continual recalibration. Lines go through registry::Frontend.
int run_registry(const Args& args, const arch::ArchSpace& arch_space,
                 const hwgen::HwSearchSpace& hw_space) {
  try {
    registry::ModelRegistry reg(args.registry_dir, hw_space);
    registry::RegistryBackend backend;
    serve::Service service(backend);  // options from DANCE_SERVE_* env

    const auto shadow_opts = registry::ShadowMirror::Options::from_env();
    std::unique_ptr<registry::ShadowMirror> shadow;
    if (shadow_opts.pct > 0.0) {
      shadow = std::make_unique<registry::ShadowMirror>(reg, shadow_opts);
    }
    std::unique_ptr<serve::CostQueryBackend> oracle;
    std::unique_ptr<registry::Recalibrator> recal;
    if (args.recalibrate) {
      serve::BackendSpec exact = args.backend;
      exact.kind = "exact";
      oracle = serve::make_backend(exact, arch_space, hw_space);
      recal = std::make_unique<registry::Recalibrator>(
          reg, args.model, *oracle, registry::Recalibrator::Options::from_env());
    }
    registry::Frontend frontend(reg, service, args.model, shadow.get(),
                                recal.get());
    arm_sighup();
    std::fprintf(stderr,
                 "[serve_jsonl] registry=%s model=%s live_generation=%llu "
                 "shadow_pct=%g recalibrate=%s, reading JSON lines from "
                 "stdin (SIGHUP or {\"cmd\": \"reload\"} hot-swaps)\n",
                 args.registry_dir.c_str(), args.model.c_str(),
                 static_cast<unsigned long long>(
                     reg.live_generation(args.model)),
                 shadow_opts.pct, args.recalibrate ? "on" : "off");

    serve_stdin([&](const std::string& line) {
      if (g_reload_requested != 0) {
        g_reload_requested = 0;
        try {
          const std::size_t swaps = reg.reload();
          std::fprintf(stderr, "[serve_jsonl] SIGHUP reload: %zu swaps\n",
                       swaps);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[serve_jsonl] SIGHUP reload failed: %s\n",
                       e.what());
        }
      }
      return frontend.answer_line(line, arch_space);
    });

    if (shadow) {
      shadow->drain();
      const auto ss = shadow->stats();
      std::fprintf(stderr,
                   "[serve_jsonl] shadow: sampled=%llu mirrored=%llu "
                   "disagreements=%llu agreement_rate=%.3f "
                   "order_agreement_rate=%.3f\n",
                   static_cast<unsigned long long>(ss.sampled),
                   static_cast<unsigned long long>(ss.mirrored),
                   static_cast<unsigned long long>(ss.disagreements),
                   ss.agreement_rate(), ss.order_agreement_rate());
    }
    if (recal) {
      const std::uint64_t published = recal->train_now();  // final flush
      const auto rs = recal->stats();
      std::fprintf(stderr,
                   "[serve_jsonl] recalibration: observed=%llu labeled=%llu "
                   "trainings=%llu last_candidate_generation=%llu%s\n",
                   static_cast<unsigned long long>(rs.observed),
                   static_cast<unsigned long long>(rs.labeled),
                   static_cast<unsigned long long>(rs.trainings),
                   static_cast<unsigned long long>(rs.last_published),
                   published != 0 ? " (published at EOF)" : "");
    }
    std::fputs(service.stats_report().c_str(), stderr);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[serve_jsonl] registry startup failed: %s\n",
                 e.what());
    return 1;
  }
}

/// Plain mode: one backend from serve::make_backend. Lines go through
/// serve::wire::answer_line.
int run_plain(const Args& args, const arch::ArchSpace& arch_space,
              const hwgen::HwSearchSpace& hw_space) {
  std::unique_ptr<serve::CostQueryBackend> backend;
  try {
    backend = serve::make_backend(args.backend, arch_space, hw_space);
  } catch (const arch::ArtifactError& e) {
    std::fprintf(stderr,
                 "[serve_jsonl] cost-table load failed: %s (path=%s "
                 "offset=%zu expected=%016llx actual=%016llx)\n",
                 e.what(), e.path().c_str(), e.offset(),
                 static_cast<unsigned long long>(e.expected_checksum()),
                 static_cast<unsigned long long>(e.actual_checksum()));
    return 1;
  }

  serve::Service service(*backend);  // options from DANCE_SERVE_* env
  std::fprintf(stderr,
               "[serve_jsonl] backend=%s, reading JSON lines from stdin\n",
               backend->name());
  const std::string metrics_path = util::env_string("DANCE_METRICS_JSON", "");
  if (!metrics_path.empty()) {
    std::fprintf(stderr, "[serve_jsonl] metrics will be exported to %s at exit\n",
                 metrics_path.c_str());
  }

  serve_stdin([&](const std::string& line) {
    return serve::wire::answer_line(line, arch_space, service);
  });

  std::fputs(service.stats_report().c_str(), stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = util::flag_value(argv[i], "--backend=")) {
      args.backend.kind = v;
    } else if (const char* v = util::flag_value(argv[i], "--hwgen-ckpt=")) {
      args.backend.hwgen_ckpt = v;
    } else if (const char* v = util::flag_value(argv[i], "--cost-ckpt=")) {
      args.backend.cost_ckpt = v;
    } else if (const char* v = util::flag_value(argv[i], "--registry=")) {
      args.registry_dir = v;
    } else if (const char* v = util::flag_value(argv[i], "--model=")) {
      args.model = v;
    } else if (const char* v = util::flag_value(argv[i], "--table=")) {
      args.backend.table_path = v;
    } else if (std::strcmp(argv[i], "--recalibrate") == 0) {
      args.recalibrate = true;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      args.small = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (args.backend.kind != "exact" && args.backend.kind != "surrogate") {
    std::fprintf(stderr, "--backend must be exact or surrogate\n");
    return 2;
  }
  if (args.recalibrate && args.registry_dir.empty()) {
    std::fprintf(stderr, "--recalibrate requires --registry\n");
    return 2;
  }

  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw_space =
      args.small ? hwgen::HwSearchSpace::small() : hwgen::HwSearchSpace();
  return args.registry_dir.empty() ? run_plain(args, arch_space, hw_space)
                                   : run_registry(args, arch_space, hw_space);
}

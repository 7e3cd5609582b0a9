// JSON-lines front-end for the dance::serve cost-query service.
//
// Reads one request per line from stdin, answers one JSON object per line on
// stdout, and prints the service stats report to stderr at EOF. Request
// forms (whitespace-insensitive, keys in any order):
//   {"id": 1, "arch": [0, 3, 6, 0, 1, 2, 4, 5, 0]}   per-slot op indices
//   {"id": 2, "encoding": [1.0, 0.0, ...]}           raw evaluator encoding
// Response:
//   {"id": 1, "latency_ms": ..., "energy_mj": ..., "area_mm2": ...,
//    "pe_x": 16, "pe_y": 16, "rf_size": 32, "dataflow": "RS",
//    "cached": false, "degraded": false}
// Malformed lines get {"id": <id or -1>, "error": "..."} and processing
// continues. "degraded" marks answers that came from the resilience
// fallback tier instead of the primary backend.
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
//   --fault=SPEC               install a fault injector (same grammar as
//                              DANCE_FAULT; overrides the env variable)
//   --resilient                wrap the backend in serve::ResilientBackend
//                              (deadlines/retries/breaker via the
//                              DANCE_SERVE_* knobs); with --backend=exact a
//                              surrogate fallback tier is built so faulted
//                              queries degrade instead of erroring
//   --registry=DIR             serve from a model registry (docs/registry.md)
//                              instead of a single backend: requests pin the
//                              live generation of --model (or the request's
//                              own "model" field), {"cmd": "reload"} and
//                              SIGHUP hot-swap externally published
//                              generations, and responses carry
//                              "generation". Mutually exclusive with
//                              --backend/--fault/--resilient. Shadow A/B
//                              mirroring follows DANCE_REGISTRY_SHADOW_PCT.
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
//   ./build/examples/serve_jsonl --small --resilient
//     --fault='backend:error=0.2,latency=0.1:2000' < q.jsonl
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "accel/cost_function.h"
#include "arch/cost_artifact.h"
#include "arch/cost_table.h"
#include "evalnet/evaluator.h"
#include "fault/fault.h"
#include "fault/faulty_backend.h"
#include "obs/span.h"
#include "registry/recalibrate.h"
#include "registry/registry.h"
#include "registry/serving.h"
#include "registry/shadow.h"
#include "serve/backend.h"
#include "serve/resilient.h"
#include "serve/service.h"
#include "serve/wire.h"
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

// Request parsing and response serialization live in serve::wire — the same
// code path the socket servers (src/net, src/cluster) speak, so this
// stdin front-end and a cluster shard produce byte-identical lines.

const char* flag_value(const char* arg, const char* flag) {
  const std::size_t n = std::strlen(flag);
  return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string backend_name = "exact";
  std::string hwgen_ckpt;
  std::string cost_ckpt;
  std::string fault_spec_text;
  std::string registry_dir;
  std::string model_name = "default";
  std::string table_path;
  bool small = false;
  bool resilient_mode = false;
  bool recalibrate = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--backend=")) {
      backend_name = v;
    } else if (const char* v = flag_value(argv[i], "--hwgen-ckpt=")) {
      hwgen_ckpt = v;
    } else if (const char* v = flag_value(argv[i], "--cost-ckpt=")) {
      cost_ckpt = v;
    } else if (const char* v = flag_value(argv[i], "--fault=")) {
      fault_spec_text = v;
    } else if (const char* v = flag_value(argv[i], "--registry=")) {
      registry_dir = v;
    } else if (const char* v = flag_value(argv[i], "--model=")) {
      model_name = v;
    } else if (const char* v = flag_value(argv[i], "--table=")) {
      table_path = v;
    } else if (std::strcmp(argv[i], "--recalibrate") == 0) {
      recalibrate = true;
    } else if (std::strcmp(argv[i], "--resilient") == 0) {
      resilient_mode = true;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (backend_name != "exact" && backend_name != "surrogate") {
    std::fprintf(stderr, "--backend must be exact or surrogate\n");
    return 2;
  }
  if (!registry_dir.empty() &&
      (resilient_mode || !fault_spec_text.empty())) {
    std::fprintf(stderr,
                 "--registry is mutually exclusive with --fault/--resilient\n");
    return 2;
  }
  if (recalibrate && registry_dir.empty()) {
    std::fprintf(stderr, "--recalibrate requires --registry\n");
    return 2;
  }

  arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw_space =
      small ? hwgen::HwSearchSpace({.pe_min = 8, .pe_max = 12, .rf_min = 8,
                                    .rf_max = 32, .rf_step = 8})
            : hwgen::HwSearchSpace();
  accel::CostModel model;

  // Ground-truth table: mmap the compiled artifact when --table is given
  // (zero build time, pages shared with every other process mapping it),
  // otherwise build in memory. Both answer bit-identically.
  const auto make_table = [&]() -> std::unique_ptr<arch::CostProvider> {
    if (!table_path.empty()) {
      auto mapped = arch::load_cost_table(table_path, arch_space);
      std::fprintf(stderr,
                   "[serve_jsonl] mapped cost table %s (%zu bytes, checksum "
                   "%016llx)\n",
                   mapped->path().c_str(), mapped->mapped_bytes(),
                   static_cast<unsigned long long>(mapped->checksum()));
      return mapped;
    }
    return std::make_unique<arch::CostTable>(arch_space, hw_space, model);
  };

  if (!registry_dir.empty()) {
    // Registry serving path: pinned generations, hot reload, shadow A/B,
    // optional continual recalibration. Kept as its own straight-line block
    // — the single-backend path below stays byte-identical to what the
    // cluster smoke diffs against.
    try {
      registry::ModelRegistry reg(registry_dir, hw_space);
      registry::RegistryBackend backend;
      serve::Service service(backend);  // options from DANCE_SERVE_* env

      const auto shadow_opts = registry::ShadowMirror::Options::from_env();
      std::unique_ptr<registry::ShadowMirror> shadow;
      if (shadow_opts.pct > 0.0) {
        shadow = std::make_unique<registry::ShadowMirror>(reg, shadow_opts);
      }
      std::unique_ptr<arch::CostProvider> oracle_table;
      std::unique_ptr<serve::ExactBackend> oracle;
      std::unique_ptr<registry::Recalibrator> recal;
      if (recalibrate) {
        oracle_table = make_table();
        oracle = std::make_unique<serve::ExactBackend>(*oracle_table,
                                                       accel::edap_cost());
        recal = std::make_unique<registry::Recalibrator>(
            reg, model_name, *oracle, registry::Recalibrator::Options::from_env());
      }
      registry::Frontend frontend(reg, service, model_name, shadow.get(),
                                  recal.get());
      arm_sighup();
      std::fprintf(stderr,
                   "[serve_jsonl] registry=%s model=%s live_generation=%llu "
                   "shadow_pct=%g recalibrate=%s, reading JSON lines from "
                   "stdin (SIGHUP or {\"cmd\": \"reload\"} hot-swaps)\n",
                   registry_dir.c_str(), model_name.c_str(),
                   static_cast<unsigned long long>(
                       reg.live_generation(model_name)),
                   shadow_opts.pct, recalibrate ? "on" : "off");

      obs::ScopedSpan stream_span("serve_jsonl.stream");
      std::string line;
      while (std::getline(std::cin, line)) {
        if (g_reload_requested != 0) {
          g_reload_requested = 0;
          try {
            const std::size_t swaps = frontend.reload();
            std::fprintf(stderr, "[serve_jsonl] SIGHUP reload: %zu swaps\n",
                         swaps);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "[serve_jsonl] SIGHUP reload failed: %s\n",
                         e.what());
          }
        }
        const std::string out = frontend.answer_line(line, arch_space);
        if (out.empty()) continue;
        std::fwrite(out.data(), 1, out.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
      }

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

  // Built lazily per backend: the LUT is only worth building for --backend=exact.
  std::unique_ptr<arch::CostProvider> table;
  std::unique_ptr<evalnet::Evaluator> evaluator;
  std::unique_ptr<serve::CostQueryBackend> backend;
  if (backend_name == "exact") {
    try {
      table = make_table();
    } catch (const arch::ArtifactError& e) {
      std::fprintf(stderr,
                   "[serve_jsonl] cost-table load failed: %s (path=%s "
                   "offset=%zu expected=%016llx actual=%016llx)\n",
                   e.what(), e.path().c_str(), e.offset(),
                   static_cast<unsigned long long>(e.expected_checksum()),
                   static_cast<unsigned long long>(e.actual_checksum()));
      return 1;
    }
    backend = std::make_unique<serve::ExactBackend>(*table, accel::edap_cost());
  } else {
    util::Rng rng(17);
    evaluator = std::make_unique<evalnet::Evaluator>(
        arch_space.encoding_width(), hw_space, rng);
    if (!hwgen_ckpt.empty()) evaluator->hwgen_net().load(hwgen_ckpt);
    if (!cost_ckpt.empty()) evaluator->cost_net().load(cost_ckpt);
    if (hwgen_ckpt.empty() && cost_ckpt.empty()) {
      std::fprintf(stderr,
                   "[serve_jsonl] note: surrogate backend running with "
                   "untrained weights (pass --hwgen-ckpt/--cost-ckpt)\n");
    }
    backend = std::make_unique<serve::SurrogateBackend>(*evaluator);
  }

  // Fault injection: --fault wins over DANCE_FAULT; either installs the
  // injector globally (arming the pool-site hook when the spec asks for it)
  // and decorates the backend with the "backend"-site chaos wrapper.
  std::shared_ptr<fault::FaultInjector> injector;
  try {
    if (!fault_spec_text.empty()) {
      injector = std::make_shared<fault::FaultInjector>(
          fault::FaultSpec::parse(fault_spec_text),
          util::env_u64("DANCE_FAULT_SEED", 0xFA17));
      fault::install_global(injector);
    } else {
      injector = fault::install_from_env();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad fault spec: %s\n", e.what());
    return 2;
  }
  std::unique_ptr<fault::FaultyBackend> faulty;
  serve::CostQueryBackend* primary = backend.get();
  if (injector) {
    faulty = std::make_unique<fault::FaultyBackend>(*backend, injector);
    primary = faulty.get();
    std::fprintf(stderr, "[serve_jsonl] fault injection armed (seed=0x%llx)\n",
                 static_cast<unsigned long long>(injector->seed()));
  }

  // Resilience: decorate the (possibly faulty) primary with deadlines,
  // retries and the breaker. With an exact primary, an untrained-or-loaded
  // surrogate acts as the degradation tier; a surrogate primary has no
  // cheaper tier to fall back to.
  std::unique_ptr<serve::SurrogateBackend> fallback;
  std::unique_ptr<serve::ResilientBackend> resilient;
  serve::CostQueryBackend* serving = primary;
  if (resilient_mode) {
    if (backend_name == "exact") {
      util::Rng rng(17);
      evaluator = std::make_unique<evalnet::Evaluator>(
          arch_space.encoding_width(), hw_space, rng);
      if (!hwgen_ckpt.empty()) evaluator->hwgen_net().load(hwgen_ckpt);
      if (!cost_ckpt.empty()) evaluator->cost_net().load(cost_ckpt);
      fallback = std::make_unique<serve::SurrogateBackend>(*evaluator);
    }
    resilient = std::make_unique<serve::ResilientBackend>(
        *primary, fallback.get(), serve::ResilientBackend::Options::from_env());
    serving = resilient.get();
  }

  serve::Service service(*serving);  // options from DANCE_SERVE_* env
  std::fprintf(stderr,
               "[serve_jsonl] backend=%s, reading JSON lines from stdin\n",
               serving->name());
  const std::string metrics_path = util::env_string("DANCE_METRICS_JSON", "");
  if (!metrics_path.empty()) {
    std::fprintf(stderr, "[serve_jsonl] metrics will be exported to %s at exit\n",
                 metrics_path.c_str());
  }

  obs::ScopedSpan stream_span("serve_jsonl.stream");
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string out = serve::wire::answer_line(line, arch_space, service);
    if (out.empty()) continue;  // blank input line: no response owed
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }

  std::fputs(service.stats_report().c_str(), stderr);
  if (resilient) {
    const auto rs = resilient->stats();
    std::fprintf(stderr,
                 "[serve_jsonl] resilience: primary_calls=%llu retries=%llu "
                 "fallbacks=%llu deadline_expired=%llu breaker_opens=%llu "
                 "breaker_closes=%llu shed=%llu\n",
                 static_cast<unsigned long long>(rs.primary_calls),
                 static_cast<unsigned long long>(rs.retries),
                 static_cast<unsigned long long>(rs.fallbacks),
                 static_cast<unsigned long long>(rs.deadline_expired),
                 static_cast<unsigned long long>(rs.breaker_opens),
                 static_cast<unsigned long long>(rs.breaker_closes),
                 static_cast<unsigned long long>(service.stats().batcher.shed));
  }
  if (injector) {
    const auto fs = injector->stats();
    std::fprintf(stderr,
                 "[serve_jsonl] faults injected: visits=%llu errors=%llu "
                 "latency_spikes=%llu hangs=%llu\n",
                 static_cast<unsigned long long>(fs.visits),
                 static_cast<unsigned long long>(fs.errors),
                 static_cast<unsigned long long>(fs.latency_spikes),
                 static_cast<unsigned long long>(fs.hangs));
    fault::install_global(nullptr);  // disarm the pool hook before teardown
  }
  return 0;
}

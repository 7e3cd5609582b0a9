// JSON-lines front-end for the dance::serve cost-query service.
//
// Reads one request per line from stdin, answers one JSON object per line on
// stdout, and prints the service stats report to stderr at EOF. The request,
// response and error forms are the wire protocol of src/serve/wire.h, e.g.
//   {"id": 1, "arch": [0, 3, 6, 0, 1, 2, 4, 5, 0]}   per-slot op indices
// Malformed lines get an error line and processing continues; "degraded"
// is always false (wire.h says why the key stays). The backend comes from
// serve::make_backend and every line goes through serve::wire::answer_line,
// the pipeline the cluster shards run too.
//
// Flags:
//   --backend=exact|surrogate  ground-truth LUT (default) or the evaluator
//                              (one Evaluator::forward_batch per batch)
//   --small                    tiny hardware space (fast startup; CI smoke)
//   --hwgen-ckpt=PATH          load HwGenNet weights  (surrogate only)
//   --cost-ckpt=PATH           load CostNet weights   (surrogate only)
//
// Examples:
//   printf '{"id":1,"arch":[0,1,2,3,4,5,6,0,1]}\n' |
//     ./build/examples/serve_jsonl --backend=exact --small
//   ./build/examples/serve_jsonl --backend=surrogate
//     --hwgen-ckpt=evaluator_hwgen.ckpt --cost-ckpt=evaluator_cost.ckpt < q.jsonl
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/span.h"
#include "serve/service.h"
#include "serve/stack.h"
#include "serve/wire.h"
#include "util/cli.h"
#include "util/env.h"

namespace {

using namespace dance;

struct Args {
  serve::BackendSpec backend;
  bool small = false;
};

int run(const Args& args, const arch::ArchSpace& arch_space,
        const hwgen::HwSearchSpace& hw_space) {
  std::unique_ptr<serve::CostQueryBackend> backend;
  try {
    backend = serve::make_backend(args.backend, arch_space, hw_space);
  } catch (const std::runtime_error& e) {  // a missing or bad checkpoint
    std::fprintf(stderr, "[serve_jsonl] cannot build backend: %s\n", e.what());
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

  {
    obs::ScopedSpan stream_span("serve_jsonl.stream");
    std::string line;
    while (std::getline(std::cin, line)) {
      const std::string out = serve::wire::answer_line(line, arch_space, service);
      if (out.empty()) continue;  // blank line: no response owed
      std::fwrite(out.data(), 1, out.size(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
    }
  }

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

  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw_space =
      args.small ? hwgen::HwSearchSpace::small() : hwgen::HwSearchSpace();
  return run(args, arch_space, hw_space);
}

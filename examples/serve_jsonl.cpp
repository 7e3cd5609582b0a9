// JSON-lines front-end for the dance::serve cost-query service.
//
// Reads one request per line from stdin, answers one JSON object per line on
// stdout, and prints the service stats report to stderr at EOF. The request,
// response and error forms are the wire protocol of src/serve/wire.h, e.g.
//   {"id": 1, "arch": [0, 3, 6, 0, 1, 2, 4, 5, 0]}   per-slot op indices
// Malformed lines get an error line and processing continues; "degraded"
// is always false (wire.h says why the key stays). Every answer is exact:
// an ExactBackend (EDAP) over a CostTable built in memory at start-up, and
// every line goes through serve::wire::answer_line.
//
// Flags:
//   --small                    tiny hardware space (fast startup; CI smoke)
//
// Example:
//   printf '{"id":1,"arch":[0,1,2,3,4,5,6,0,1]}\n' |
//     ./build/examples/serve_jsonl --small
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "arch/cost_table.h"
#include "obs/span.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/env.h"

namespace {

using namespace dance;

int run(const arch::ArchSpace& arch_space,
        const hwgen::HwSearchSpace& hw_space) {
  const arch::CostTable table(arch_space, hw_space, accel::CostModel{});
  serve::ExactBackend backend(table);
  serve::Service service(backend);  // options from DANCE_SERVE_* env
  std::fprintf(stderr, "[serve_jsonl] reading JSON lines from stdin\n");
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
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw_space =
      small ? hwgen::HwSearchSpace::small() : hwgen::HwSearchSpace();
  return run(arch_space, hw_space);
}

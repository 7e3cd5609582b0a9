// The benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--part K] [--trace-dir DIR]
//
// Workloads: nasloop-hit, miss-exact, miss-surrogate, cosearch. The last
// line of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Everything before it is a human-readable report. A traced
// run also probes, at the smoke-test size, the layers its own workload does
// not reach, so every traced run reports every per-layer metric; the report
// names the source of each row.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;

constexpr const char* kWorkloads[] = {"nasloop-hit", "miss-exact",
                                      "miss-surrogate", "cosearch"};

Outcome run_workload(const Args& args, const std::string& trace_dir) {
  const std::string trace_path =
      trace_dir.empty() ? ""
                        : trace_dir + "/" + args.workload + "-seed" +
                              std::to_string(args.seed) + ".json";
  if (args.workload == "nasloop-hit") {
    return perfbench::run_serve(args, perfbench::ServeKind::kHit, trace_path);
  }
  if (args.workload == "miss-exact") {
    return perfbench::run_serve(args, perfbench::ServeKind::kMissExact,
                                trace_path);
  }
  if (args.workload == "miss-surrogate") {
    return perfbench::run_serve(args, perfbench::ServeKind::kMissSurrogate,
                                trace_path);
  }
  return perfbench::run_cosearch(args, trace_path);
}

void print_metrics_json(const Outcome& out,
                        const std::map<std::string, perfbench::Metric>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <nasloop-hit|miss-exact|"
               "miss-surrogate|cosearch> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|tiny] [--part K] "
               "[--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string trace_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--size") {
      if (std::strcmp(value, "tiny") == 0) {
        args.size = perfbench::Size::kTiny;
      } else if (std::strcmp(value, "full") != 0) {
        return usage();
      }
    } else if (flag == "--part") {
      args.part = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known || !(args.seconds > 0.0) || argc % 2 == 0) return usage();

  Outcome out;
  try {
    out = run_workload(args, trace_dir);
    if (args.trace) {
      // Rows the workload itself measured come first; the rest are probed.
      std::map<std::string, std::string> source;
      for (const auto& [name, metric] : out.layers) {
        source[name] = args.workload;
      }
      for (const char* other : kWorkloads) {
        if (args.workload == other) continue;
        Args probe = args;
        probe.workload = other;
        probe.size = perfbench::Size::kTiny;
        const Outcome p = run_workload(probe, "");
        if (!p.correct) out.fail(std::string("probe ") + other + " failed");
        for (const auto& [name, metric] : p.layers) {
          if (out.layers.emplace(name, metric).second) {
            source[name] = std::string("probe:") + other;
          }
        }
      }
      std::printf("per-layer (traced run):\n");
      for (const auto& [name, metric] : out.layers) {
        std::printf("  %-32s %14.4f %-9s %s\n", name.c_str(), metric.value,
                    metric.unit.c_str(), source[name].c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("workload %s\n", args.workload.c_str());
  for (const auto& [key, value] : out.info) {
    std::printf("  %-20s %s\n", key.c_str(), value.c_str());
  }
  std::printf("end-to-end%s:\n", args.trace ? " (traced run; not gated)" : "");
  for (const auto& [name, metric] : out.metrics) {
    std::printf("  %-20s %14.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  print_metrics_json(out, args.trace ? out.layers : out.metrics);
  return 0;
}

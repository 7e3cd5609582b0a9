// The four benchmark workloads. Each runs in-process against the library's
// public entry points, checks its answers against an independent oracle and
// returns an Outcome. With `args.trace` set, a workload also fills
// `Outcome::layers` with the per-layer metrics of the layers it exercises.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

enum class ServeKind { kHit, kMissExact, kMissSurrogate };

/// `nasloop-hit`, `miss-exact` and `miss-surrogate`: two closed-loop client
/// threads replaying generated wire lines through `serve::wire::answer_line`.
[[nodiscard]] Outcome run_serve(const Args& args, ServeKind kind,
                                const std::string& trace_path);

/// `cosearch`: fixed-seed evaluator pre-training (set-up), then one
/// `search::DanceSearch::run` per search seed until the time is up.
[[nodiscard]] Outcome run_cosearch(const Args& args,
                                   const std::string& trace_path);

}  // namespace perfbench

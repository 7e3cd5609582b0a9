#pragma once

#include <memory>
#include <string>

#include "arch/space.h"
#include "hwgen/search_space.h"
#include "serve/backend.h"

namespace dance::serve {

/// What `make_backend` builds: the serving front-ends' --backend and
/// checkpoint flags.
struct BackendSpec {
  std::string kind = "exact";  ///< "exact" or "surrogate"
  std::string hwgen_ckpt;      ///< surrogate: optional HwGenNet weights
  std::string cost_ckpt;       ///< surrogate: optional CostNet weights
};

/// The one place a serving backend is built, so every process answers a
/// query with the same bytes. The result owns what it answers from:
///   * exact: ExactBackend (EDAP) over a CostTable built in memory;
///   * surrogate: SurrogateBackend over an Evaluator initialised from
///     util::Rng(17), with the optional checkpoints loaded.
/// `arch_space` and `hw_space` must outlive it. Throws
/// std::invalid_argument for an unknown kind, and the checkpoint loader's
/// errors. A note that the surrogate runs untrained goes to stderr under
/// "[serve]".
[[nodiscard]] std::unique_ptr<CostQueryBackend> make_backend(
    const BackendSpec& spec, const arch::ArchSpace& arch_space,
    const hwgen::HwSearchSpace& hw_space);

}  // namespace dance::serve

#pragma once

#include <array>
#include <vector>

#include "arch/cost_table.h"
#include "util/rng.h"

namespace dance::evalnet {

/// One ground-truth sample for evaluator training: a random architecture
/// from A, the optimal hardware configuration found by exhaustive search
/// over H, and the cost metrics of running the network on that optimum.
struct EvalSample {
  std::vector<float> arch_enc;          ///< one-hot architecture encoding
  std::array<int, 4> hw_labels{};       ///< PEX / PEY / RF / dataflow indices
  std::vector<float> hw_enc;            ///< one-hot config encoding
  std::array<double, 3> metrics{};      ///< latency_ms, energy_mj, area_mm2
};

struct EvaluatorDataset {
  std::vector<EvalSample> samples;
  int arch_encoding_width = 0;
  int hw_encoding_width = 0;
};

/// Generate `count` ground-truth samples: sample random architectures and run
/// the exact exhaustive hardware generation tool on each. This is the C++
/// counterpart of the paper's Timeloop+Accelergy ground-truth corpus.
[[nodiscard]] EvaluatorDataset generate_evaluator_dataset(
    const arch::CostTable& table, const accel::HwCostFn& cost_fn, int count,
    util::Rng& rng);

/// Split a dataset into train/validation parts (no shuffling; samples are
/// i.i.d. by construction).
[[nodiscard]] std::pair<EvaluatorDataset, EvaluatorDataset> split_dataset(
    const EvaluatorDataset& ds, double train_fraction);

}  // namespace dance::evalnet

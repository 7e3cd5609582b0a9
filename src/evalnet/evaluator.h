#pragma once

#include <memory>

#include "evalnet/cost_net.h"
#include "evalnet/hwgen_net.h"

namespace dance::evalnet {

/// The full differentiable evaluator of Fig. 4: hardware generation network
/// -> Gumbel-softmax -> (feature forwarding) -> cost estimation network.
/// Once trained it is frozen and spliced into the NAS loss so that hardware
/// cost gradients flow back into the architecture parameters.
class Evaluator {
 public:
  struct Options {
    HwGenNet::Options hwgen;
    CostNet::Options cost;
    float gumbel_tau = 1.0F;
    bool gumbel_hard = false;  ///< soft during search keeps gradients smooth
  };

  Evaluator(int arch_encoding_width, const hwgen::HwSearchSpace& space,
            util::Rng& rng);
  Evaluator(int arch_encoding_width, const hwgen::HwSearchSpace& space,
            util::Rng& rng, const Options& opts);

  struct Output {
    tensor::Variable hw_encoding;  ///< [N, hw_width] near-one-hot config
    tensor::Variable metrics;      ///< [N, 3] latency_ms, energy_mj, area_mm2
  };

  /// Differentiable forward pass from an architecture encoding (which may be
  /// a soft distribution during search) to predicted cost metrics.
  [[nodiscard]] Output forward(const tensor::Variable& arch_enc, util::Rng& rng);

  /// Deterministic inference contract (the dance::serve path)
  /// ---------------------------------------------------------
  /// `forward` draws Gumbel noise from the caller's RNG, so the result of a
  /// query depends on the RNG stream position — two identical requests in
  /// different orders produce different bits, which makes answers
  /// uncacheable. `forward_deterministic` replaces the sampling with the
  /// tau-frozen argmax path: each hardware head emits the hard one-hot of
  /// its logits (straight-through), no noise, no RNG. The output is then a
  /// pure function of (`arch_enc`, parameters):
  ///   * identical encodings map to bit-identical outputs, in any order,
  ///   * rows are independent, so stacking encodings into one [N, W] batch
  ///     (`forward_batch`) is bit-identical to N single-row calls.
  /// Both guarantees require eval mode (`set_training(false)`): in training
  /// mode the cost net's batch norm uses batch statistics, which depend on
  /// batch composition (and mutate the running buffers). Both methods throw
  /// std::logic_error when the evaluator is still in training mode.
  [[nodiscard]] Output forward_deterministic(const tensor::Variable& arch_enc);

  /// Batched deterministic inference: stacks `rows` (each one arch-encoding
  /// row of equal width) into a single [N, W] forward via stack_rows().
  /// serve::SurrogateBackend answers each batch with this same forward on
  /// its stacked requests, so its answers are these bits. A single-row batch is legal and bit-identical to forward_deterministic
  /// on that row wrapped as a [1, W] tensor — the case every single
  /// Service::query miss produces (property tested in tests/test_infer.cpp).
  [[nodiscard]] Output forward_batch(
      const std::vector<std::vector<float>>& rows);

  /// Stacks equal-width rows into one [N, W] tensor with a single allocation
  /// sized up front (no per-row growth). Throws std::invalid_argument on an
  /// empty batch or unequal row widths.
  [[nodiscard]] static tensor::Tensor stack_rows(
      const std::vector<std::vector<float>>& rows);

  [[nodiscard]] HwGenNet& hwgen_net() { return *hwgen_; }
  [[nodiscard]] CostNet& cost_net() { return *cost_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Freeze/unfreeze all parameters (the evaluator is frozen during search).
  /// Both setters are idempotent — calling them with the state the evaluator
  /// is already in performs no write. Combined with the facts that `forward`
  /// in eval mode reads only (batch norm uses its running buffers) and that
  /// backward never touches nodes with requires_grad unset, this makes a
  /// frozen, eval-mode evaluator safe to share across concurrent searches:
  /// prepare it once with set_training(false) + set_frozen(true) before
  /// fanning out, and every lane's repeated calls degrade to reads.
  void set_frozen(bool frozen);
  void set_training(bool training);
  [[nodiscard]] bool training() const { return training_; }

 private:
  Options opts_;
  std::unique_ptr<HwGenNet> hwgen_;
  std::unique_ptr<CostNet> cost_;
  bool training_ = true;
};

}  // namespace dance::evalnet

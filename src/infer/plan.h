#pragma once

#include <array>
#include <utility>
#include <vector>

#include "evalnet/frozen.h"

namespace dance::evalnet {
class Evaluator;
}

namespace dance::infer {

class Plan;

/// Per-caller scratch for plan execution: every intermediate activation the
/// schedule touches, laid out as [rows, width] slabs in one allocation.
/// Grows monotonically to the largest batch seen and is then reused, so
/// steady-state execution performs zero heap allocation.
///
/// Threading: one Arena serves all pool lanes of a single Plan::run call
/// (lanes write disjoint row ranges). Distinct concurrent run calls need
/// distinct Arenas; the Plan itself is immutable after compile and may be
/// shared freely.
class Arena {
 public:
  Arena() = default;

  /// Resize for `rows` rows of `plan`'s schedule (no-op when already big
  /// enough).
  void prepare(const Plan& plan, int rows);

  /// Staging slab for stacking request rows into the [n, width] input the
  /// plan consumes, so callers can batch without a per-batch Tensor.
  [[nodiscard]] float* stage_input(int rows, int width);

  [[nodiscard]] std::size_t bytes() const {
    return (f32_.capacity() + input_.capacity()) * sizeof(float);
  }

 private:
  friend class Plan;
  std::vector<float> f32_;
  std::vector<float> input_;
  int rows_ = 0;
};

/// A frozen-inference plan: an evalnet::Evaluator checkpoint flattened into
/// a linear schedule of fused Linear[+BatchNorm][+ReLU][+residual] steps,
/// hard-argmax head decoding and output scaling, executed over an Arena with
/// the shared blocked GEMM (tensor/gemm.h).
///
/// Contracts:
///   * run() is bit-identical to Evaluator::forward_deterministic /
///     forward_batch on the same checkpoint (property-tested; see
///     docs/inference.md for why each step preserves bits).
///   * A Plan is an immutable snapshot: training or loading a checkpoint
///     after compile() does not change it — recompile to pick up new
///     weights.
class Plan {
 public:
  /// Compiles a frozen snapshot (Evaluator::freeze()). Throws
  /// std::invalid_argument when the snapshot is structurally inconsistent
  /// (head ranges vs trunk widths, feature forwarding vs cost input width).
  [[nodiscard]] static Plan compile(const evalnet::FrozenEvaluator& frozen);
  /// Convenience: freeze + compile. Requires eval mode (Evaluator::freeze).
  [[nodiscard]] static Plan compile(evalnet::Evaluator& evaluator);

  /// Executes the plan for `n` stacked rows at `input` ([n, arch_width]).
  /// Writes predicted metrics to `metrics_out` ([n, 3], latency/energy/area
  /// order) and the one-hot hardware encoding to `hw_out` ([n, hw_width]).
  void run(const float* input, int n, float* metrics_out, float* hw_out,
           Arena& arena) const;

  [[nodiscard]] int arch_width() const { return arch_width_; }
  [[nodiscard]] int hw_width() const { return hw_width_; }
  [[nodiscard]] const std::array<std::pair<int, int>, 4>& head_ranges() const {
    return head_ranges_;
  }
  /// Fused steps in the schedule (Linear-rooted steps across both trunks).
  [[nodiscard]] std::size_t num_steps() const;
  /// Scratch floats one row of the schedule needs (arena sizing).
  [[nodiscard]] std::size_t floats_per_row() const;

 private:
  struct Step {
    // Fused Linear [+ BatchNorm] [+ ReLU] [+ residual] parameters. Weight
    // and bias alias the frozen snapshot copies made at compile time.
    tensor::Tensor weight;  ///< [in, out]
    tensor::Tensor bias;    ///< [out] or empty
    bool b_finite = true;   ///< all_finite(weight): enables the GEMM zero-skip
    tensor::Tensor gamma, beta, mean, inv_std;
    bool has_norm = false;
    bool relu = false;
    bool residual = false;
    int in = 0;
    int out = 0;
  };
  struct Trunk {
    std::vector<Step> steps;
    int in_dim = 0;
    int hidden_dim = 0;
    int out_dim = 0;
  };

  static Trunk compile_trunk(const nn::FrozenMlp& mlp);

  /// Executes rows [lo, hi) of the whole schedule on the calling lane.
  /// `n` is the full batch (arena slab stride).
  void run_rows(long lo, long hi, int n, const float* input,
                float* metrics_out, float* hw_out, Arena& arena) const;
  void run_trunk_rows(const Trunk& trunk, long lo, long hi, const float* in,
                      float* h, float* z, float* out) const;

  Trunk hwgen_;
  Trunk cost_;
  std::array<std::pair<int, int>, 4> head_ranges_{};
  std::array<float, 3> output_scale_{1.0F, 1.0F, 1.0F};
  bool feature_forwarding_ = true;
  int arch_width_ = 0;
  int hw_width_ = 0;
  int cost_in_width_ = 0;
};

}  // namespace dance::infer

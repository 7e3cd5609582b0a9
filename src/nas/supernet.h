#pragma once

#include <memory>
#include <vector>

#include "arch/space.h"
#include "nn/linear.h"
#include "util/rng.h"

namespace dance::nas {

/// Configuration of the differentiable supernet. The supernet is the
/// synthetic-task stand-in for the ProxylessNAS CIFAR-10 supernet (see
/// DESIGN.md §2): each searchable layer carries the same seven candidate
/// operations as the paper, realized as residual bottleneck MLP blocks whose
/// capacity grows with kernel size and expansion ratio — so the *search
/// dynamics* (accuracy pulls toward big ops, hardware cost pushes toward
/// small/Zero ops) are preserved, while the hardware cost of each choice is
/// computed from the true MBConv convolution shapes by the accel library.
struct SuperNetConfig {
  int input_dim = 16;
  int num_classes = 10;
  int width = 48;       ///< residual trunk width
  int num_blocks = 9;   ///< searchable layers (matches the backbone)
  /// Hidden units of a candidate block = expand * expand_units +
  /// kernel * kernel_units: capacity ordering mirrors MBConv MACs ordering.
  int expand_units = 6;
  int kernel_units = 4;
};

/// Per-block gate vector: [1, kNumCandidateOps] mixture weights (one-hot or
/// soft) over the candidate operations.
using Gates = std::vector<tensor::Variable>;

/// The over-parameterized search network with per-layer architecture
/// parameters alpha (Fig. 3, left side).
class SuperNet {
 public:
  SuperNet(const SuperNetConfig& config, util::Rng& rng);

  /// Mixture forward: block output = skip + sum_j gate_j * op_j(h).
  /// Gates typically come from `sample_gates` (Gumbel) or one-hot tensors.
  [[nodiscard]] tensor::Variable forward(const tensor::Variable& x,
                                         const Gates& gates);

  /// Single-path forward for a concrete architecture (used for weight
  /// training on sampled paths; only the chosen op's weights get gradients).
  [[nodiscard]] tensor::Variable forward_fixed(const tensor::Variable& x,
                                               const arch::Architecture& a);

  /// Gumbel-softmax sample of all block gates from the architecture
  /// parameters (straight-through one-hot when `hard`).
  [[nodiscard]] Gates sample_gates(float tau, bool hard, util::Rng& rng);

  /// One ProxylessNAS-style binarized sample: two candidate paths per block,
  /// drawn by the current probabilities, with a differentiable 2-way softmax
  /// gate over their architecture parameters (Cai et al. 2018; the
  /// "binarized method" of §4.1).
  struct TwoPathSample {
    int op_a = 0;
    int op_b = 0;
    tensor::Variable gate;  ///< [1, 2] softmax over (alpha_a, alpha_b)
  };
  [[nodiscard]] std::vector<TwoPathSample> sample_two_paths(util::Rng& rng);

  /// Mixture forward over the two sampled paths per block.
  [[nodiscard]] tensor::Variable forward_two_path(
      const tensor::Variable& x, const std::vector<TwoPathSample>& samples);

  /// Evaluator encoding of a two-path sample: per block, the 2-way gate
  /// probabilities placed at the sampled op positions (zeros elsewhere).
  [[nodiscard]] static tensor::Variable encode_two_path(
      const std::vector<TwoPathSample>& samples);

  /// Deterministic softmax of the architecture parameters (no sampling).
  [[nodiscard]] Gates softmax_gates();

  /// One-hot constant gates for a concrete architecture.
  [[nodiscard]] Gates onehot_gates(const arch::Architecture& a) const;

  /// Concatenate block gates into the [1, num_blocks*7] evaluator encoding.
  [[nodiscard]] static tensor::Variable encode_gates(const Gates& gates);

  /// Current op probability distribution per block (softmax of alpha).
  [[nodiscard]] std::vector<std::vector<double>> arch_probs() const;

  /// Arg-max discretization of the architecture parameters.
  [[nodiscard]] arch::Architecture derive() const;

  [[nodiscard]] std::vector<tensor::Variable> weight_parameters();
  [[nodiscard]] std::vector<tensor::Variable> arch_parameters();

  /// Freeze/unfreeze every weight parameter; the alphas keep their
  /// gradients. An architecture step brackets its forward and backward with
  /// set_weights_frozen(true)/(false): its loss and alpha gradients are bit
  /// for bit the unfrozen ones, but backward skips each layer's dB = A^T * dC
  /// (plus its transposed copy), which the next weight step would zero
  /// unread. A frozen forward still gives each layer it runs a zeroed grad
  /// buffer if it has none, as an unfrozen backward would: nn::Sgd skips a
  /// parameter without a buffer, so the buffer's existence is optimizer
  /// state. Idempotent, like evalnet::Evaluator::set_frozen.
  void set_weights_frozen(bool frozen);

  [[nodiscard]] const SuperNetConfig& config() const { return config_; }

  /// Hidden width of candidate op blocks (exposed for FixedNet parity).
  [[nodiscard]] static int op_hidden_dim(const SuperNetConfig& config,
                                         arch::CandidateOp op);

 private:
  struct CandidateBlock {
    // fc1/fc2 per non-Zero candidate op, indexed by op enum value.
    std::vector<std::unique_ptr<nn::Linear>> fc1;
    std::vector<std::unique_ptr<nn::Linear>> fc2;
  };

  [[nodiscard]] tensor::Variable op_forward(int block, int op,
                                            const tensor::Variable& h);
  /// layer.forward(x), first allocating its grad buffers while frozen.
  [[nodiscard]] tensor::Variable apply(nn::Linear& layer,
                                       const tensor::Variable& x) const;

  SuperNetConfig config_;
  std::unique_ptr<nn::Linear> stem_;
  std::vector<CandidateBlock> blocks_;
  std::unique_ptr<nn::Linear> classifier_;
  std::vector<tensor::Variable> alphas_;  ///< per block [1, 7]
  bool weights_frozen_ = false;
};

}  // namespace dance::nas

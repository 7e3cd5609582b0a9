#pragma once

#include <array>
#include <memory>
#include <string>

#include "hwgen/search_space.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace dance::evalnet {

/// The hardware generation network (§3.3): a five-layer residual perceptron
/// (width 128, ReLU) that models the exhaustive hardware search as a
/// classification problem. Given an architecture encoding it predicts the
/// optimal PE_X, PE_Y, RF size and dataflow as four classifier heads; the
/// heads pass through a Gumbel-softmax so the forwarded features are near
/// one-hot, matching the discrete inputs the cost estimation network was
/// trained on.
class HwGenNet {
 public:
  struct Options {
    int hidden_dim = 128;  ///< paper: layer width 128
    int num_layers = 5;    ///< paper: five-layer perceptron
  };

  HwGenNet(int arch_encoding_width, const hwgen::HwSearchSpace& space,
           util::Rng& rng);
  HwGenNet(int arch_encoding_width, const hwgen::HwSearchSpace& space,
           util::Rng& rng, const Options& opts);

  /// Raw head logits, concatenated in the search-space encoding order
  /// (PEX | PEY | RF | dataflow): [N, encoding_width].
  [[nodiscard]] tensor::Variable logits(const tensor::Variable& arch_enc);

  /// Per-head boundaries within the logits/encoding: {begin, end} pairs for
  /// head 0..3 = PEX, PEY, RF, dataflow.
  [[nodiscard]] std::array<std::pair<int, int>, 4> head_ranges() const;

  /// Group-wise Gumbel-softmax of the logits: a near-one-hot (or exactly
  /// one-hot when `hard`) predicted hardware configuration encoding.
  [[nodiscard]] tensor::Variable forward_encoded(const tensor::Variable& arch_enc,
                                                 float tau, bool hard,
                                                 util::Rng& rng);

  /// Tau-frozen deterministic variant of `forward_encoded`: per-head hard
  /// argmax of the logits (straight-through), no Gumbel noise, no RNG. The
  /// encoding agrees with `predict` row by row; this is the serving path
  /// (dance::serve), where identical inputs must produce identical outputs
  /// regardless of RNG stream order.
  [[nodiscard]] tensor::Variable forward_encoded_deterministic(
      const tensor::Variable& arch_enc);

  /// Argmax-decode a predicted configuration for each row of `arch_enc`.
  [[nodiscard]] std::vector<accel::AcceleratorConfig> predict(
      const tensor::Variable& arch_enc);

  [[nodiscard]] std::vector<tensor::Variable> parameters();
  void set_training(bool training);
  [[nodiscard]] bool training() const { return trunk_->training(); }
  [[nodiscard]] const hwgen::HwSearchSpace& space() const { return space_; }

  /// Full-state checkpointing (parameters; the trunk carries no batch norm).
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  const hwgen::HwSearchSpace& space_;
  std::unique_ptr<nn::ResidualMlp> trunk_;
};

}  // namespace dance::evalnet

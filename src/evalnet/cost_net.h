#pragma once

#include <array>
#include <memory>
#include <string>

#include "nn/mlp.h"
#include "util/rng.h"

namespace dance::evalnet {

/// The cost estimation network (§3.3): a five-layer residual regression
/// network (width 256, ReLU, batch norm on every layer) that maps an
/// architecture encoding — optionally concatenated with a (near-)one-hot
/// hardware configuration via feature forwarding — to the three cost metrics
/// (latency, energy, area) of the *optimal* accelerator for that network.
/// Trained with the MSRE loss of Eq. 2.
class CostNet {
 public:
  struct Options {
    int hidden_dim = 256;  ///< paper: layer width 256
    int num_layers = 5;
    bool feature_forwarding = true;  ///< append the HW config encoding
  };

  /// `hw_encoding_width` is the width of the forwarded configuration
  /// encoding (ignored when feature forwarding is off).
  CostNet(int arch_encoding_width, int hw_encoding_width, util::Rng& rng);
  CostNet(int arch_encoding_width, int hw_encoding_width, util::Rng& rng,
          const Options& opts);

  /// Predicted [latency_ms, energy_mj, area_mm2]: [N, 3].
  /// `hw_enc` must be defined iff feature forwarding is enabled.
  [[nodiscard]] tensor::Variable forward(const tensor::Variable& arch_enc,
                                         const tensor::Variable& hw_enc);

  [[nodiscard]] bool feature_forwarding() const { return opts_.feature_forwarding; }
  [[nodiscard]] std::vector<tensor::Variable> parameters();
  void set_training(bool training);
  [[nodiscard]] bool training() const { return trunk_->training(); }

  /// Per-metric output scales (typically the training-set means). The trunk
  /// regresses metrics in units of these scales and the forward pass
  /// multiplies them back, so all three MSRE columns are equally
  /// conditioned regardless of their physical magnitudes. MSRE itself is
  /// invariant under this joint rescaling of prediction and target.
  void set_output_scale(const std::array<double, 3>& scale);
  [[nodiscard]] const std::array<double, 3>& output_scale() const {
    return scale_;
  }

  /// Full-state checkpointing: trunk parameters, batch-norm running
  /// statistics and the output scale.
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  Options opts_;
  std::unique_ptr<nn::ResidualMlp> trunk_;
  std::array<double, 3> scale_{1.0, 1.0, 1.0};
};

}  // namespace dance::evalnet

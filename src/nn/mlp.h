#pragma once

#include <memory>

#include "nn/batchnorm.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "util/rng.h"

namespace dance::nn {

/// Configuration for `ResidualMlp`, the building block of both evaluator
/// sub-networks (§3.3 of the paper).
struct ResidualMlpConfig {
  int in_dim = 1;
  int hidden_dim = 128;
  /// Number of Linear layers including input projection and output head.
  /// The paper uses five-layer perceptrons for both evaluator components.
  int num_layers = 5;
  int out_dim = 1;
  /// Batch norm on every hidden layer (the cost estimation network uses it;
  /// the hardware generation network does not).
  bool batch_norm = false;
};

/// Multi-layer perceptron with ReLU activations and residual connections
/// between the hidden layers:
///
///   h0 = relu([BN](W_in x))
///   h_{k+1} = relu([BN](W_k h_k)) + h_k        (hidden residual blocks)
///   y = W_out h_last
class ResidualMlp : public Module {
 public:
  ResidualMlp(const ResidualMlpConfig& config, util::Rng& rng);

  Variable forward(const Variable& x) override;
  [[nodiscard]] std::vector<Variable> parameters() override;
  [[nodiscard]] std::vector<NamedParameter> named_parameters() override;
  void set_training(bool training) override;

  /// Non-trainable state (batch-norm running statistics) for checkpointing.
  [[nodiscard]] std::vector<Tensor*> buffers() override;

  [[nodiscard]] const ResidualMlpConfig& config() const { return config_; }

 private:
  ResidualMlpConfig config_;
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> hidden_;
  std::unique_ptr<Linear> output_;
  std::vector<std::unique_ptr<BatchNorm1d>> norms_;  ///< one per pre-output layer
};

}  // namespace dance::nn

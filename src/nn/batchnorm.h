#pragma once

#include "nn/module.h"

namespace dance::nn {

/// 1-D batch normalization over the batch dimension of a [N, D] input.
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int features, float momentum = 0.1F, float eps = 1e-5F);

  Variable forward(const Variable& x) override;
  [[nodiscard]] std::vector<Variable> parameters() override;
  [[nodiscard]] std::vector<NamedParameter> named_parameters() override;

  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }

  /// Non-trainable state (running statistics) for checkpointing.
  [[nodiscard]] std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }

 private:
  float momentum_;
  float eps_;
  Variable gamma_;
  Variable beta_;
  Tensor running_mean_;
  Tensor running_var_;
};

}  // namespace dance::nn

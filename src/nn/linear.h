#pragma once

#include "nn/module.h"
#include "util/rng.h"

namespace dance::nn {

/// Fully connected layer y = xW + b with Kaiming-uniform-style init.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, util::Rng& rng, bool bias = true);

  Variable forward(const Variable& x) override;
  [[nodiscard]] std::vector<Variable> parameters() override;
  [[nodiscard]] std::vector<NamedParameter> named_parameters() override;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }

  Variable& weight() { return weight_; }
  Variable& bias() { return bias_; }

 private:
  int in_;
  int out_;
  Variable weight_;  ///< [in, out]
  Variable bias_;    ///< [out], undefined when bias=false
};

}  // namespace dance::nn

#include "nn/linear.h"

#include <cmath>

namespace dance::nn {

Linear::Linear(int in_features, int out_features, util::Rng& rng, bool bias)
    : in_(in_features), out_(out_features) {
  // He initialization for ReLU networks.
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_features));
  weight_ = Variable(Tensor::randn({in_, out_}, rng, 0.0F, stddev),
                     /*requires_grad=*/true);
  if (bias) {
    bias_ = Variable(Tensor::zeros({out_}), /*requires_grad=*/true);
  }
}

Variable Linear::forward(const Variable& x) {
  Variable y = tensor::ops::matmul(x, weight_);
  if (bias_.defined()) y = tensor::ops::add_rowvec(y, bias_);
  return y;
}

std::vector<Variable> Linear::parameters() {
  std::vector<Variable> ps{weight_};
  if (bias_.defined()) ps.push_back(bias_);
  return ps;
}

std::vector<NamedParameter> Linear::named_parameters() {
  std::vector<NamedParameter> ps{{"weight", weight_}};
  if (bias_.defined()) ps.push_back({"bias", bias_});
  return ps;
}

}  // namespace dance::nn

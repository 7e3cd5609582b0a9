#include "nn/batchnorm.h"

namespace dance::nn {

BatchNorm1d::BatchNorm1d(int features, float momentum, float eps)
    : momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::full({features}, 1.0F), /*requires_grad=*/true),
      beta_(Tensor::zeros({features}), /*requires_grad=*/true),
      running_mean_(Tensor::zeros({features})),
      running_var_(Tensor::full({features}, 1.0F)) {}

Variable BatchNorm1d::forward(const Variable& x) {
  return tensor::ops::batchnorm(x, gamma_, beta_, running_mean_, running_var_,
                                momentum_, eps_, training_);
}

std::vector<Variable> BatchNorm1d::parameters() { return {gamma_, beta_}; }

std::vector<NamedParameter> BatchNorm1d::named_parameters() {
  return {{"gamma", gamma_}, {"beta", beta_}};
}

}  // namespace dance::nn

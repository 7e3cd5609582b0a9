#include "nn/mlp.h"

#include <stdexcept>

namespace dance::nn {

ResidualMlp::ResidualMlp(const ResidualMlpConfig& config, util::Rng& rng)
    : config_(config) {
  if (config.num_layers < 2) {
    throw std::invalid_argument("ResidualMlp: need at least 2 layers");
  }
  input_ = std::make_unique<Linear>(config.in_dim, config.hidden_dim, rng);
  const int hidden_blocks = config.num_layers - 2;
  hidden_.reserve(static_cast<std::size_t>(hidden_blocks));
  for (int i = 0; i < hidden_blocks; ++i) {
    hidden_.push_back(
        std::make_unique<Linear>(config.hidden_dim, config.hidden_dim, rng));
  }
  output_ = std::make_unique<Linear>(config.hidden_dim, config.out_dim, rng);
  if (config.batch_norm) {
    for (int i = 0; i < hidden_blocks + 1; ++i) {
      norms_.push_back(std::make_unique<BatchNorm1d>(config.hidden_dim));
    }
  }
}

Variable ResidualMlp::forward(const Variable& x) {
  namespace ops = tensor::ops;
  Variable h = input_->forward(x);
  if (config_.batch_norm) h = norms_[0]->forward(h);
  h = ops::relu(h);
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    Variable z = hidden_[i]->forward(h);
    if (config_.batch_norm) z = norms_[i + 1]->forward(z);
    z = ops::relu(z);
    h = ops::add(z, h);  // residual connection
  }
  return output_->forward(h);
}

std::vector<Variable> ResidualMlp::parameters() {
  std::vector<Variable> ps = input_->parameters();
  for (auto& l : hidden_) {
    for (auto& p : l->parameters()) ps.push_back(p);
  }
  for (auto& p : output_->parameters()) ps.push_back(p);
  for (auto& n : norms_) {
    for (auto& p : n->parameters()) ps.push_back(p);
  }
  return ps;
}

std::vector<NamedParameter> ResidualMlp::named_parameters() {
  std::vector<NamedParameter> ps;
  const auto append = [&ps](const std::string& prefix, Module& m) {
    for (auto& [name, p] : m.named_parameters()) {
      ps.push_back({prefix + "." + name, p});
    }
  };
  append("input", *input_);
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    append("hidden." + std::to_string(i), *hidden_[i]);
  }
  append("output", *output_);
  for (std::size_t i = 0; i < norms_.size(); ++i) {
    append("norm." + std::to_string(i), *norms_[i]);
  }
  return ps;
}

std::vector<tensor::Tensor*> ResidualMlp::buffers() {
  std::vector<tensor::Tensor*> bs;
  for (auto& n : norms_) {
    for (auto* b : n->buffers()) bs.push_back(b);
  }
  return bs;
}

void ResidualMlp::set_training(bool training) {
  Module::set_training(training);
  for (auto& n : norms_) n->set_training(training);
}

}  // namespace dance::nn

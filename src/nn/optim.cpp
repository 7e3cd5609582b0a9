#include "nn/optim.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>

namespace dance::nn {

Optimizer::Optimizer(std::vector<tensor::Variable> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  for (const auto& p : params_) {
    if (!p.defined() || !p.requires_grad()) {
      throw std::invalid_argument("Optimizer: parameter without gradient");
    }
  }
}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

double Optimizer::clip_grad_norm(double max_norm) {
  double sq = 0.0;
  for (auto& p : params_) {
    const auto& g = p.node()->grad;
    // A gradient of only ±0 would add +0 to sq, which leaves its bits as
    // they are; a bit-OR scan, which vectorises, finds one first.
    std::uint32_t nonzero = 0;
    for (std::size_t i = 0; i < g.numel(); ++i) {
      nonzero |= std::bit_cast<std::uint32_t>(g[i]) & 0x7fffffffU;
    }
    if (nonzero == 0) continue;
    for (std::size_t i = 0; i < g.numel(); ++i) {
      sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  }
  const double norm = std::sqrt(sq);
  if (max_norm > 0.0 && norm > max_norm) {
    const float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (auto& p : params_) {
      auto& g = p.node()->grad;
      if (g.numel() != 0) g.scale_(scale);
    }
  }
  return norm;
}

Sgd::Sgd(std::vector<tensor::Variable> params, const Options& opts)
    : Optimizer(std::move(params), opts.lr), opts_(opts) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_) {
    velocity_.push_back(tensor::Tensor::zeros(p.value().shape()));
  }
}

void Sgd::step() {
  if (opts_.max_grad_norm > 0.0F) clip_grad_norm(opts_.max_grad_norm);
  const float lr = lr_;
  const float decay = opts_.weight_decay;
  const float momentum = opts_.momentum;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    auto& node = *params_[k].node();
    if (node.grad.numel() == 0) continue;  // parameter unused this step
    // Distinct buffers, so the loops vectorise.
    float* __restrict w = node.value.data();
    const float* __restrict grad = node.grad.data();
    float* __restrict vel = velocity_[k].data();
    const std::size_t n = node.value.numel();
    if (momentum == 0.0F) {
      for (std::size_t i = 0; i < n; ++i) w[i] -= lr * (grad[i] + decay * w[i]);
    } else if (opts_.nesterov) {
      for (std::size_t i = 0; i < n; ++i) {
        const float g = grad[i] + decay * w[i];
        vel[i] = momentum * vel[i] + g;
        w[i] -= lr * (g + momentum * vel[i]);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        vel[i] = momentum * vel[i] + (grad[i] + decay * w[i]);
        w[i] -= lr * vel[i];
      }
    }
  }
}

Adam::Adam(std::vector<tensor::Variable> params, const Options& opts)
    : Optimizer(std::move(params), opts.lr), opts_(opts) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(tensor::Tensor::zeros(p.value().shape()));
    v_.push_back(tensor::Tensor::zeros(p.value().shape()));
  }
}

void Adam::step() {
  ++step_count_;
  const float bc1 = 1.0F - std::pow(opts_.beta1, static_cast<float>(step_count_));
  const float bc2 = 1.0F - std::pow(opts_.beta2, static_cast<float>(step_count_));
  const float lr = lr_;
  const float decay = opts_.weight_decay;
  const float beta1 = opts_.beta1;
  const float beta2 = opts_.beta2;
  const float eps = opts_.eps;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    auto& node = *params_[k].node();
    if (node.grad.numel() == 0) continue;
    float* __restrict w = node.value.data();
    const float* __restrict grad = node.grad.data();
    float* __restrict m = m_[k].data();
    float* __restrict v = v_[k].data();
    const std::size_t n = node.value.numel();
    for (std::size_t i = 0; i < n; ++i) {
      const float g = grad[i] + decay * w[i];
      m[i] = beta1 * m[i] + (1.0F - beta1) * g;
      v[i] = beta2 * v[i] + (1.0F - beta2) * g * g;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

CosineSchedule::CosineSchedule(float base_lr, int total_epochs)
    : base_lr_(base_lr), total_epochs_(total_epochs) {
  if (total_epochs <= 0) throw std::invalid_argument("CosineSchedule: epochs <= 0");
}

float CosineSchedule::lr(int epoch) const {
  const float t = static_cast<float>(std::min(epoch, total_epochs_)) /
                  static_cast<float>(total_epochs_);
  return 0.5F * base_lr_ * (1.0F + std::cos(std::numbers::pi_v<float> * t));
}

StepSchedule::StepSchedule(float base_lr, float gamma, int step_size)
    : base_lr_(base_lr), gamma_(gamma), step_size_(step_size) {
  if (step_size <= 0) throw std::invalid_argument("StepSchedule: step_size <= 0");
}

float StepSchedule::lr(int epoch) const {
  return base_lr_ * std::pow(gamma_, static_cast<float>(epoch / step_size_));
}

}  // namespace dance::nn

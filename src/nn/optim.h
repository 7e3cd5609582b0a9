#pragma once

#include <vector>

#include "tensor/variable.h"

namespace dance::nn {

/// Base optimizer: owns handles to parameter variables and updates their
/// values in place from accumulated gradients.
class Optimizer {
 public:
  explicit Optimizer(std::vector<tensor::Variable> params, float lr);
  virtual ~Optimizer() = default;

  virtual void step() = 0;
  void zero_grad();

  void set_lr(float lr) { lr_ = lr; }
  [[nodiscard]] float lr() const { return lr_; }

  /// Rescale all gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm. Call between backward() and step().
  double clip_grad_norm(double max_norm);

 protected:
  std::vector<tensor::Variable> params_;
  float lr_;
};

/// SGD with momentum, optional Nesterov momentum and decoupled-from-loss L2
/// weight decay (the paper's ||w|| term in Eq. 1 is realized here).
class Sgd : public Optimizer {
 public:
  struct Options {
    float lr = 0.01F;
    float momentum = 0.0F;
    bool nesterov = false;
    float weight_decay = 0.0F;
    /// Global gradient-norm clip applied inside step(); 0 disables.
    float max_grad_norm = 0.0F;
  };

  Sgd(std::vector<tensor::Variable> params, const Options& opts);
  void step() override;

  /// Momentum buffer of parameter k.
  [[nodiscard]] const tensor::Tensor& velocity(std::size_t k) const {
    return velocity_[k];
  }

 private:
  Options opts_;
  std::vector<tensor::Tensor> velocity_;
};

/// Adam (Kingma & Ba) with optional L2 weight decay.
class Adam : public Optimizer {
 public:
  struct Options {
    float lr = 1e-3F;
    float beta1 = 0.9F;
    float beta2 = 0.999F;
    float eps = 1e-8F;
    float weight_decay = 0.0F;
  };

  Adam(std::vector<tensor::Variable> params, const Options& opts);
  void step() override;

  /// First and second moment estimates of parameter k.
  [[nodiscard]] const tensor::Tensor& first_moment(std::size_t k) const {
    return m_[k];
  }
  [[nodiscard]] const tensor::Tensor& second_moment(std::size_t k) const {
    return v_[k];
  }

 private:
  Options opts_;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
  long step_count_ = 0;
};

/// Cosine annealing from `base_lr` to ~0 over `total_epochs`
/// (the paper's search schedule).
class CosineSchedule {
 public:
  CosineSchedule(float base_lr, int total_epochs);
  [[nodiscard]] float lr(int epoch) const;

 private:
  float base_lr_;
  int total_epochs_;
};

/// Step decay: lr = base * gamma^(epoch / step_size) (the paper's hardware
/// generation network schedule: 0.001, x0.1 every 50 epochs).
class StepSchedule {
 public:
  StepSchedule(float base_lr, float gamma, int step_size);
  [[nodiscard]] float lr(int epoch) const;

 private:
  float base_lr_;
  float gamma_;
  int step_size_;
};

}  // namespace dance::nn

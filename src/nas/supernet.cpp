#include "nas/supernet.h"

#include <cmath>
#include <stdexcept>

namespace dance::nas {

namespace ops = tensor::ops;
using arch::CandidateOp;
using arch::kAllCandidateOps;
using arch::kNumCandidateOps;
using tensor::Tensor;
using tensor::Variable;

int SuperNet::op_hidden_dim(const SuperNetConfig& config, CandidateOp op) {
  if (arch::is_zero(op)) return 0;
  return arch::expand_ratio(op) * config.expand_units +
         arch::kernel_size(op) * config.kernel_units;
}

SuperNet::SuperNet(const SuperNetConfig& config, util::Rng& rng)
    : config_(config) {
  if (config.num_blocks <= 0 || config.width <= 0) {
    throw std::invalid_argument("SuperNet: bad config");
  }
  stem_ = std::make_unique<nn::Linear>(config.input_dim, config.width, rng);
  blocks_.resize(static_cast<std::size_t>(config.num_blocks));
  for (auto& block : blocks_) {
    block.fc1.resize(kNumCandidateOps);
    block.fc2.resize(kNumCandidateOps);
    for (int op = 0; op < kNumCandidateOps; ++op) {
      const CandidateOp cop = kAllCandidateOps[static_cast<std::size_t>(op)];
      if (arch::is_zero(cop)) continue;
      const int hidden = op_hidden_dim(config, cop);
      block.fc1[static_cast<std::size_t>(op)] =
          std::make_unique<nn::Linear>(config.width, hidden, rng);
      block.fc2[static_cast<std::size_t>(op)] =
          std::make_unique<nn::Linear>(hidden, config.width, rng);
      // Near-identity residual branches at init (Fixup-style): keeps deep
      // stacks of un-normalized blocks stable at practical learning rates.
      block.fc2[static_cast<std::size_t>(op)]->weight().value().scale_(0.25F);
    }
  }
  classifier_ = std::make_unique<nn::Linear>(config.width, config.num_classes, rng);
  alphas_.reserve(static_cast<std::size_t>(config.num_blocks));
  for (int b = 0; b < config.num_blocks; ++b) {
    alphas_.emplace_back(Tensor::zeros({1, kNumCandidateOps}),
                         /*requires_grad=*/true);
  }
}

Variable SuperNet::apply(nn::Linear& layer, const Variable& x) const {
  if (weights_frozen_) {
    layer.weight().node()->ensure_grad();
    if (layer.bias().defined()) layer.bias().node()->ensure_grad();
  }
  return layer.forward(x);
}

Variable SuperNet::op_forward(int block, int op, const Variable& h) {
  auto& blk = blocks_[static_cast<std::size_t>(block)];
  const Variable z = ops::relu(apply(*blk.fc1[static_cast<std::size_t>(op)], h));
  return apply(*blk.fc2[static_cast<std::size_t>(op)], z);
}

Variable SuperNet::forward(const Variable& x, const Gates& gates) {
  if (static_cast<int>(gates.size()) != config_.num_blocks) {
    throw std::invalid_argument("SuperNet::forward: gate count mismatch");
  }
  Variable h = ops::relu(apply(*stem_, x));
  for (int b = 0; b < config_.num_blocks; ++b) {
    const Variable& gate = gates[static_cast<std::size_t>(b)];
    Variable acc = h;  // skip connection
    for (int op = 0; op < kNumCandidateOps; ++op) {
      const CandidateOp cop = kAllCandidateOps[static_cast<std::size_t>(op)];
      if (arch::is_zero(cop)) continue;  // Zero leaves only the skip
      // Skip ops whose (non-trainable-constant) gate is exactly zero —
      // one-hot gates then cost a single op per block.
      if (!gate.requires_grad() && gate.value().at(0, op) == 0.0F) continue;
      const Variable gj = ops::slice_cols(gate, op, op + 1);
      acc = ops::add(acc, ops::scale_by(op_forward(b, op, h), gj));
    }
    h = acc;
  }
  return apply(*classifier_, h);
}

Variable SuperNet::forward_fixed(const Variable& x, const arch::Architecture& a) {
  if (static_cast<int>(a.size()) != config_.num_blocks) {
    throw std::invalid_argument("SuperNet::forward_fixed: arch length mismatch");
  }
  Variable h = ops::relu(apply(*stem_, x));
  for (int b = 0; b < config_.num_blocks; ++b) {
    const CandidateOp cop = a[static_cast<std::size_t>(b)];
    if (arch::is_zero(cop)) continue;
    h = ops::add(h, op_forward(b, static_cast<int>(cop), h));
  }
  return apply(*classifier_, h);
}

Gates SuperNet::sample_gates(float tau, bool hard, util::Rng& rng) {
  Gates gates;
  gates.reserve(alphas_.size());
  for (auto& alpha : alphas_) {
    gates.push_back(ops::gumbel_softmax(alpha, tau, hard, rng));
  }
  return gates;
}

std::vector<SuperNet::TwoPathSample> SuperNet::sample_two_paths(util::Rng& rng) {
  std::vector<TwoPathSample> samples;
  samples.reserve(alphas_.size());
  for (std::size_t b = 0; b < alphas_.size(); ++b) {
    const auto probs = arch_probs()[b];
    std::vector<float> w(probs.begin(), probs.end());
    TwoPathSample s;
    s.op_a = rng.categorical(w);
    // Draw a distinct second path.
    std::vector<float> w2 = w;
    w2[static_cast<std::size_t>(s.op_a)] = 0.0F;
    s.op_b = rng.categorical(w2);
    // Differentiable renormalized gate over the two sampled alphas.
    const Variable a = ops::slice_cols(alphas_[b], s.op_a, s.op_a + 1);
    const Variable bb = ops::slice_cols(alphas_[b], s.op_b, s.op_b + 1);
    s.gate = ops::softmax_rows(ops::concat_cols({a, bb}));
    samples.push_back(std::move(s));
  }
  return samples;
}

Variable SuperNet::forward_two_path(const Variable& x,
                                    const std::vector<TwoPathSample>& samples) {
  if (samples.size() != alphas_.size()) {
    throw std::invalid_argument("forward_two_path: sample count mismatch");
  }
  Variable h = ops::relu(apply(*stem_, x));
  for (std::size_t b = 0; b < samples.size(); ++b) {
    const auto& s = samples[b];
    Variable acc = h;
    for (int side = 0; side < 2; ++side) {
      const int op = side == 0 ? s.op_a : s.op_b;
      if (arch::is_zero(kAllCandidateOps[static_cast<std::size_t>(op)])) continue;
      const Variable g = ops::slice_cols(s.gate, side, side + 1);
      acc = ops::add(acc, ops::scale_by(op_forward(static_cast<int>(b), op, h), g));
    }
    h = acc;
  }
  return apply(*classifier_, h);
}

Variable SuperNet::encode_two_path(const std::vector<TwoPathSample>& samples) {
  std::vector<Variable> blocks;
  blocks.reserve(samples.size());
  for (const auto& s : samples) {
    Variable enc;
    for (int side = 0; side < 2; ++side) {
      const int op = side == 0 ? s.op_a : s.op_b;
      Tensor onehot = Tensor::zeros({1, kNumCandidateOps});
      onehot.at(0, op) = 1.0F;
      const Variable term = ops::scale_by(Variable(std::move(onehot)),
                                          ops::slice_cols(s.gate, side, side + 1));
      enc = side == 0 ? term : ops::add(enc, term);
    }
    blocks.push_back(std::move(enc));
  }
  return ops::concat_cols(blocks);
}

Gates SuperNet::softmax_gates() {
  Gates gates;
  gates.reserve(alphas_.size());
  for (auto& alpha : alphas_) gates.push_back(ops::softmax_rows(alpha));
  return gates;
}

Gates SuperNet::onehot_gates(const arch::Architecture& a) const {
  if (static_cast<int>(a.size()) != config_.num_blocks) {
    throw std::invalid_argument("SuperNet::onehot_gates: arch length mismatch");
  }
  Gates gates;
  gates.reserve(a.size());
  for (const auto op : a) {
    Tensor t = Tensor::zeros({1, kNumCandidateOps});
    t.at(0, static_cast<int>(op)) = 1.0F;
    gates.emplace_back(std::move(t), /*requires_grad=*/false);
  }
  return gates;
}

Variable SuperNet::encode_gates(const Gates& gates) {
  return ops::concat_cols(gates);
}

std::vector<std::vector<double>> SuperNet::arch_probs() const {
  std::vector<std::vector<double>> probs;
  probs.reserve(alphas_.size());
  for (const auto& alpha : alphas_) {
    std::vector<double> p(kNumCandidateOps);
    double mx = alpha.value()[0];
    for (int j = 1; j < kNumCandidateOps; ++j) {
      mx = std::max(mx, static_cast<double>(alpha.value()[static_cast<std::size_t>(j)]));
    }
    double sum = 0.0;
    for (int j = 0; j < kNumCandidateOps; ++j) {
      p[static_cast<std::size_t>(j)] =
          std::exp(static_cast<double>(alpha.value()[static_cast<std::size_t>(j)]) - mx);
      sum += p[static_cast<std::size_t>(j)];
    }
    for (auto& v : p) v /= sum;
    probs.push_back(std::move(p));
  }
  return probs;
}

arch::Architecture SuperNet::derive() const {
  arch::Architecture a;
  a.reserve(alphas_.size());
  for (const auto& alpha : alphas_) {
    int arg = 0;
    for (int j = 1; j < kNumCandidateOps; ++j) {
      if (alpha.value()[static_cast<std::size_t>(j)] >
          alpha.value()[static_cast<std::size_t>(arg)]) {
        arg = j;
      }
    }
    a.push_back(kAllCandidateOps[static_cast<std::size_t>(arg)]);
  }
  return a;
}

std::vector<Variable> SuperNet::weight_parameters() {
  std::vector<Variable> ps = stem_->parameters();
  for (auto& block : blocks_) {
    for (int op = 0; op < kNumCandidateOps; ++op) {
      if (!block.fc1[static_cast<std::size_t>(op)]) continue;
      for (auto& p : block.fc1[static_cast<std::size_t>(op)]->parameters()) ps.push_back(p);
      for (auto& p : block.fc2[static_cast<std::size_t>(op)]->parameters()) ps.push_back(p);
    }
  }
  for (auto& p : classifier_->parameters()) ps.push_back(p);
  return ps;
}

std::vector<Variable> SuperNet::arch_parameters() { return alphas_; }

void SuperNet::set_weights_frozen(bool frozen) {
  if (weights_frozen_ == frozen) return;
  weights_frozen_ = frozen;
  for (auto& p : weight_parameters()) p.node()->requires_grad = !frozen;
}

}  // namespace dance::nas

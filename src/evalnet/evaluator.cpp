#include "evalnet/evaluator.h"

#include <cstring>
#include <stdexcept>

namespace dance::evalnet {

Evaluator::Evaluator(int arch_encoding_width, const hwgen::HwSearchSpace& space,
                     util::Rng& rng)
    : Evaluator(arch_encoding_width, space, rng, Options{}) {}

Evaluator::Evaluator(int arch_encoding_width, const hwgen::HwSearchSpace& space,
                     util::Rng& rng, const Options& opts)
    : opts_(opts) {
  hwgen_ = std::make_unique<HwGenNet>(arch_encoding_width, space, rng, opts.hwgen);
  cost_ = std::make_unique<CostNet>(arch_encoding_width, space.encoding_width(),
                                    rng, opts.cost);
}

Evaluator::Output Evaluator::forward(const tensor::Variable& arch_enc,
                                     util::Rng& rng) {
  Output out;
  out.hw_encoding = hwgen_->forward_encoded(arch_enc, opts_.gumbel_tau,
                                            opts_.gumbel_hard, rng);
  if (cost_->feature_forwarding()) {
    out.metrics = cost_->forward(arch_enc, out.hw_encoding);
  } else {
    out.metrics = cost_->forward(arch_enc, tensor::Variable{});
  }
  return out;
}

Evaluator::Output Evaluator::forward_deterministic(
    const tensor::Variable& arch_enc) {
  if (training_) {
    throw std::logic_error(
        "Evaluator::forward_deterministic: requires eval mode "
        "(set_training(false)); batch-norm batch statistics would make the "
        "output batch-composition dependent");
  }
  Output out;
  out.hw_encoding = hwgen_->forward_encoded_deterministic(arch_enc);
  if (cost_->feature_forwarding()) {
    out.metrics = cost_->forward(arch_enc, out.hw_encoding);
  } else {
    out.metrics = cost_->forward(arch_enc, tensor::Variable{});
  }
  return out;
}

tensor::Tensor Evaluator::stack_rows(
    const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) {
    throw std::invalid_argument("Evaluator::stack_rows: empty batch");
  }
  const std::size_t width = rows.front().size();
  for (const auto& r : rows) {
    if (r.size() != width) {
      throw std::invalid_argument(
          "Evaluator::stack_rows: rows have unequal widths");
    }
  }
  // One [N, W] allocation sized up front; rows land via memcpy.
  tensor::Tensor stacked(
      {static_cast<int>(rows.size()), static_cast<int>(width)});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(stacked.data() + i * width, rows[i].data(),
                width * sizeof(float));
  }
  return stacked;
}

Evaluator::Output Evaluator::forward_batch(
    const std::vector<std::vector<float>>& rows) {
  return forward_deterministic(tensor::Variable(stack_rows(rows)));
}

void Evaluator::set_frozen(bool frozen) {
  // Idempotent: when every parameter already has the requested grad state
  // this is a pure read. That is what lets concurrent co-searches share one
  // pre-frozen evaluator: each DanceSearch::run still calls
  // set_frozen(true), but only the first — made before the searches fan
  // out — writes.
  bool changed = false;
  for (auto& p : hwgen_->parameters()) changed |= p.node()->requires_grad == frozen;
  for (auto& p : cost_->parameters()) changed |= p.node()->requires_grad == frozen;
  if (!changed) return;
  for (auto& p : hwgen_->parameters()) p.node()->requires_grad = !frozen;
  for (auto& p : cost_->parameters()) p.node()->requires_grad = !frozen;
}

void Evaluator::set_training(bool training) {
  // Idempotent for the same reason as set_frozen. The guard checks the
  // nets' own flags (not just the mirror) so a trainer that toggled a net
  // directly cannot leave this facade out of sync.
  if (training_ == training && hwgen_->training() == training &&
      cost_->training() == training) {
    return;
  }
  training_ = training;
  hwgen_->set_training(training);
  cost_->set_training(training);
}

}  // namespace dance::evalnet

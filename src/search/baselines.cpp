#include "search/baselines.h"

#include <chrono>

#include "nn/optim.h"

namespace dance::search {

namespace ops = tensor::ops;
using tensor::Tensor;
using tensor::Variable;

SearchOutcome run_baseline(const data::SyntheticTask& task,
                           const arch::CostTable& cost_table,
                           const nas::SuperNetConfig& net_config,
                           const BaselineOptions& opts) {
  const auto t_start = std::chrono::steady_clock::now();
  util::Rng rng(opts.seed);
  nas::SuperNet supernet(net_config, rng);

  // Per-slot candidate MACs (in millions) as constant column vectors; the
  // expected-FLOPs penalty is gate . macs, which is differentiable in the
  // architecture parameters (the ProxylessNAS-style latency/FLOPs proxy).
  std::vector<Variable> macs_cols;
  if (opts.flops_weight > 0.0F) {
    const auto& space = cost_table.arch_space();
    for (int slot = 0; slot < space.num_searchable(); ++slot) {
      Tensor col({arch::kNumCandidateOps, 1});
      for (int op = 0; op < arch::kNumCandidateOps; ++op) {
        double macs = 0.0;
        for (const auto& shape : space.lower_choice(
                 slot, arch::kAllCandidateOps[static_cast<std::size_t>(op)])) {
          macs += static_cast<double>(shape.macs());
        }
        col.at(op, 0) = static_cast<float>(macs / 1e6);
      }
      macs_cols.emplace_back(std::move(col), /*requires_grad=*/false);
    }
  }

  nn::Sgd::Options sgd;
  sgd.lr = opts.weight_lr;
  sgd.momentum = opts.weight_momentum;
  sgd.nesterov = true;
  sgd.weight_decay = opts.weight_decay;
  sgd.max_grad_norm = 2.0F;
  nn::Sgd weight_opt(supernet.weight_parameters(), sgd);
  const nn::CosineSchedule weight_schedule(opts.weight_lr, opts.search_epochs);

  nn::Adam::Options adam;
  adam.lr = opts.arch_lr;
  nn::Adam arch_opt(supernet.arch_parameters(), adam);

  const int n = task.train.size();
  const int period = std::max(1, opts.arch_update_period);
  for (int epoch = 0; epoch < opts.search_epochs; ++epoch) {
    weight_opt.set_lr(weight_schedule.lr(epoch));
    const auto perm = rng.permutation(n);
    int batch_index = 0;
    for (int start = 0; start < n; start += opts.batch_size, ++batch_index) {
      const int stop = std::min(n, start + opts.batch_size);
      const std::vector<int> idx(perm.begin() + start, perm.begin() + stop);
      auto [bx, by] = task.train.batch(idx);
      const Variable x(std::move(bx));

      // Weight step on a sampled path.
      {
        arch::Architecture sampled;
        for (const auto& p : supernet.arch_probs()) {
          std::vector<float> w(p.begin(), p.end());
          sampled.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(
              rng.categorical(w))]);
        }
        const Variable loss =
            ops::cross_entropy(supernet.forward_fixed(x, sampled), by);
        weight_opt.zero_grad();
        for (auto& a : supernet.arch_parameters()) a.zero_grad();
        loss.backward();
        weight_opt.step();
      }

      // Architecture step: CE (+ optional expected-FLOPs penalty).
      if (batch_index % period == 0) {
        supernet.set_weights_frozen(true);  // only the alphas learn here
        nas::Gates gates = supernet.sample_gates(opts.gumbel_tau, true, rng);
        Variable loss = ops::cross_entropy(supernet.forward(x, gates), by);
        if (opts.flops_weight > 0.0F) {
          Variable penalty;
          for (std::size_t b = 0; b < gates.size(); ++b) {
            const Variable term = ops::matmul(gates[b], macs_cols[b]);
            penalty = b == 0 ? term : ops::add(penalty, term);
          }
          loss = ops::add(
              loss, ops::sum_all(ops::scale(penalty, opts.flops_weight)));
        }
        arch_opt.zero_grad();
        loss.backward();
        supernet.set_weights_frozen(false);
        arch_opt.step();
      }
    }
  }

  SearchOutcome outcome;
  outcome.architecture = supernet.derive();
  const auto t_end = std::chrono::steady_clock::now();
  outcome.search_seconds = std::chrono::duration<double>(t_end - t_start).count();
  outcome.trained_candidates = 1;

  // Post-hoc hardware generation ("+ HW" in Table 2).
  const hwgen::HwSearchResult hw = cost_table.optimal(
      outcome.architecture, make_cost_fn(opts.cost_kind, opts.linear_weights));
  outcome.hardware = hw.config;
  outcome.metrics = hw.metrics;

  util::Rng retrain_rng(opts.seed + 1);
  nas::FixedNet fixed(net_config, outcome.architecture, retrain_rng);
  const nas::FixedTrainResult r = nas::train_fixed_net(fixed, task, opts.retrain);
  outcome.val_accuracy_pct = r.val_accuracy_pct;
  return outcome;
}

}  // namespace dance::search

#include "search/dance.h"

#include <chrono>
#include <cstdio>

#include "nn/optim.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/profiler.h"

namespace dance::search {

namespace ops = tensor::ops;
using tensor::Variable;

DanceSearch::DanceSearch(const data::SyntheticTask& task,
                         const arch::CostTable& cost_table,
                         evalnet::Evaluator& evaluator,
                         const nas::SuperNetConfig& net_config,
                         const DanceOptions& opts)
    : task_(task),
      cost_table_(cost_table),
      evaluator_(evaluator),
      net_config_(net_config),
      opts_(opts) {}

SearchOutcome DanceSearch::run() {
  obs::ScopedSpan run_span("dance.run");
  const auto t_start = std::chrono::steady_clock::now();
  util::Rng rng(opts_.seed);

  // The evaluator is pre-trained and frozen; only the gradient *through* it
  // reaches the architecture parameters. Eval mode so batch norm uses its
  // running statistics (the search feeds single-row encodings).
  evaluator_.set_frozen(true);
  evaluator_.set_training(false);

  nas::SuperNet supernet(net_config_, rng);

  nn::Sgd::Options sgd;
  sgd.lr = opts_.weight_lr;
  sgd.momentum = opts_.weight_momentum;
  sgd.nesterov = true;
  sgd.weight_decay = opts_.weight_decay;  // lambda_1 ||w|| of Eq. 1
  sgd.max_grad_norm = 2.0F;
  nn::Sgd weight_opt(supernet.weight_parameters(), sgd);
  const nn::CosineSchedule weight_schedule(opts_.weight_lr, opts_.search_epochs);

  nn::Adam::Options adam;
  adam.lr = opts_.arch_lr;
  nn::Adam arch_opt(supernet.arch_parameters(), adam);

  const LambdaWarmup warmup(opts_.warmup_lambda2, opts_.lambda2,
                            opts_.warmup_epochs,
                            std::max(1, opts_.search_epochs / 6));

  obs::Gauge& lambda2_gauge = obs::Registry::global().gauge("dance.lambda2");
  obs::Gauge& loss_gauge = obs::Registry::global().gauge("dance.arch_loss");
  const int n = task_.train.size();
  const int period = std::max(1, opts_.arch_update_period);
  for (int epoch = 0; epoch < opts_.search_epochs; ++epoch) {
    obs::ScopedSpan epoch_span("dance.epoch");
    weight_opt.set_lr(weight_schedule.lr(epoch));
    const float lambda2 = warmup.value(epoch);
    lambda2_gauge.set(lambda2);
    double arch_loss_sum = 0.0;
    int arch_steps = 0;
    const auto perm = rng.permutation(n);
    int batch_index = 0;
    for (int start = 0; start < n; start += opts_.batch_size, ++batch_index) {
      const int stop = std::min(n, start + opts_.batch_size);
      const std::vector<int> idx(perm.begin() + start, perm.begin() + stop);
      auto [bx, by] = task_.train.batch(idx);
      const Variable x(std::move(bx));

      // --- Weight step: single sampled path (binarized training). ---
      {
        DANCE_PROFILE_SCOPE("dance.weight_step");
        arch::Architecture sampled;
        sampled.reserve(static_cast<std::size_t>(net_config_.num_blocks));
        for (const auto& p : supernet.arch_probs()) {
          std::vector<float> w(p.begin(), p.end());
          sampled.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(
              rng.categorical(w))]);
        }
        const Variable logits = supernet.forward_fixed(x, sampled);
        const Variable loss = ops::cross_entropy(logits, by);
        weight_opt.zero_grad();
        for (auto& a : supernet.arch_parameters()) a.zero_grad();
        loss.backward();
        weight_opt.step();
      }

      // --- Architecture step: Eq. 1 through the evaluator. ---
      if (batch_index % period == 0) {
        DANCE_PROFILE_SCOPE("dance.arch_step");
        // Only the alphas learn here: frozen weights skip every dB product,
        // and the next weight step zeroes their gradients anyway.
        supernet.set_weights_frozen(true);
        Variable logits;
        Variable enc;
        if (opts_.arch_update == ArchUpdate::kBinarizedTwoPath) {
          const auto samples = supernet.sample_two_paths(rng);
          logits = supernet.forward_two_path(x, samples);
          enc = nas::SuperNet::encode_two_path(samples);
        } else {
          nas::Gates gates =
              supernet.sample_gates(opts_.gumbel_tau, /*hard=*/true, rng);
          logits = supernet.forward(x, gates);
          enc = nas::SuperNet::encode_gates(gates);
        }
        Variable loss = ops::cross_entropy(logits, by);
        if (lambda2 > 0.0F) {
          const evalnet::Evaluator::Output out = evaluator_.forward(enc, rng);
          const Variable cost = hw_cost_variable(out.metrics, opts_.cost_kind,
                                                 opts_.linear_weights);
          loss = ops::add(loss, ops::sum_all(ops::scale(cost, lambda2)));
        }
        arch_loss_sum += loss.value()[0];
        ++arch_steps;
        arch_opt.zero_grad();
        loss.backward();
        supernet.set_weights_frozen(false);
        arch_opt.step();
      }
    }
    if (arch_steps > 0) loss_gauge.set(arch_loss_sum / arch_steps);
    if (opts_.verbose) {
      const auto a = supernet.derive();
      std::printf("[dance] epoch %2d lambda2=%.3f macs=%lld\n", epoch + 1,
                  static_cast<double>(lambda2),
                  static_cast<long long>(cost_table_.arch_space().macs(a)));
    }
  }

  final_probs_ = supernet.arch_probs();

  SearchOutcome outcome;
  outcome.architecture = supernet.derive();
  const auto t_end = std::chrono::steady_clock::now();
  outcome.search_seconds =
      std::chrono::duration<double>(t_end - t_start).count();
  outcome.trained_candidates = 1;  // the defining property of DANCE
  obs::Registry::global().gauge("dance.macs").set(static_cast<double>(
      cost_table_.arch_space().macs(outcome.architecture)));
  obs::Registry::global().gauge("dance.search_seconds")
      .set(outcome.search_seconds);

  // One-time exact hardware generation after the search (§4.3).
  {
    DANCE_PROFILE_SCOPE("dance.hwgen");
    const hwgen::HwSearchResult hw = cost_table_.optimal(
        outcome.architecture,
        make_cost_fn(opts_.cost_kind, opts_.linear_weights));
    outcome.hardware = hw.config;
    outcome.metrics = hw.metrics;
  }

  // Retrain the derived network from scratch.
  {
    DANCE_PROFILE_SCOPE("dance.retrain");
    util::Rng retrain_rng(opts_.seed + 1);
    nas::FixedNet fixed(net_config_, outcome.architecture, retrain_rng);
    const nas::FixedTrainResult r = nas::train_fixed_net(fixed, task_, opts_.retrain);
    outcome.val_accuracy_pct = r.val_accuracy_pct;
  }

  // With DANCE_PROFILE=1 (or set_profiling_enabled), show where the search
  // run's wall-clock went, aggregated per op.
  if (runtime::profiling_enabled()) {
    std::printf("[dance] profile:\n%s", runtime::profiler_report().c_str());
  }
  return outcome;
}

}  // namespace dance::search

#include "search/rl.h"

#include <chrono>
#include <cmath>
#include <limits>

namespace dance::search {

namespace {

/// Softmax over a logit vector.
std::vector<float> softmax(const std::vector<float>& logits) {
  float mx = logits[0];
  for (float v : logits) mx = std::max(mx, v);
  std::vector<float> p(logits.size());
  float sum = 0.0F;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (auto& v : p) v /= sum;
  return p;
}

/// REINFORCE update on one categorical head: theta += lr * adv * d log pi.
void reinforce_update(std::vector<float>& logits, int action, float advantage,
                      float lr) {
  const auto p = softmax(logits);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float indicator = (static_cast<int>(i) == action) ? 1.0F : 0.0F;
    logits[i] += lr * advantage * (indicator - p[i]);
  }
}

}  // namespace

SearchOutcome run_rl_coexploration(const data::SyntheticTask& task,
                                   const arch::CostTable& cost_table,
                                   const nas::SuperNetConfig& net_config,
                                   const RlOptions& opts) {
  const auto t_start = std::chrono::steady_clock::now();
  util::Rng rng(opts.seed);
  const auto& arch_space = cost_table.arch_space();
  const auto& hw_space = cost_table.hw_space();
  const int slots = arch_space.num_searchable();

  // Controller: independent categorical heads for every architecture slot
  // and every accelerator design dimension.
  std::vector<std::vector<float>> arch_logits(
      static_cast<std::size_t>(slots),
      std::vector<float>(arch::kNumCandidateOps, 0.0F));
  std::vector<std::vector<float>> hw_logits = {
      std::vector<float>(static_cast<std::size_t>(hw_space.num_pe_choices()), 0.0F),
      std::vector<float>(static_cast<std::size_t>(hw_space.num_pe_choices()), 0.0F),
      std::vector<float>(static_cast<std::size_t>(hw_space.num_rf_choices()), 0.0F),
      std::vector<float>(3, 0.0F)};


  // Cost scale reference: a mid-range configuration on a random architecture,
  // so rewards are O(1).
  double cost_ref;
  {
    const arch::Architecture probe = arch_space.random(rng);
    cost_ref = std::max(1e-12, cost_table.optimal(probe, opts.cost).cost);
  }

  // Proxy training options shared by every candidate.
  nas::FixedTrainOptions proxy;
  proxy.epochs = opts.proxy_epochs;
  proxy.batch_size = opts.proxy_batch_size;
  proxy.lr = opts.proxy_lr;

  double reward_baseline = 0.0;
  bool baseline_init = false;

  SearchOutcome best;
  double best_reward = -std::numeric_limits<double>::infinity();

  for (int cand = 0; cand < opts.num_candidates; ++cand) {
    // Sample a joint candidate.
    arch::Architecture a;
    std::vector<int> arch_actions(static_cast<std::size_t>(slots));
    for (int s = 0; s < slots; ++s) {
      const int action = rng.categorical(softmax(arch_logits[static_cast<std::size_t>(s)]));
      arch_actions[static_cast<std::size_t>(s)] = action;
      a.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(action)]);
    }
    std::array<int, 4> hw_actions{};
    for (int h = 0; h < 4; ++h) {
      hw_actions[static_cast<std::size_t>(h)] =
          rng.categorical(softmax(hw_logits[static_cast<std::size_t>(h)]));
    }
    const accel::AcceleratorConfig config{
        hw_space.pe_value(hw_actions[0]), hw_space.pe_value(hw_actions[1]),
        hw_space.rf_value(hw_actions[2]), hw_space.dataflow_value(hw_actions[3])};

    // Evaluate the candidate: proxy-train the network, cost-model the HW.
    proxy.seed = opts.seed + static_cast<std::uint64_t>(cand) + 101;
    util::Rng cand_rng(proxy.seed);
    nas::FixedNet net(net_config, a, cand_rng);
    const nas::FixedTrainResult r = nas::train_fixed_net(net, task, proxy);
    const accel::CostMetrics metrics =
        cost_table.metrics(hw_space.index_of(config), a);
    const double cost = opts.cost(metrics);
    const double reward =
        r.val_accuracy_pct / 100.0 - opts.beta * cost / cost_ref;

    if (!baseline_init) {
      reward_baseline = reward;
      baseline_init = true;
    }
    const float advantage = static_cast<float>(reward - reward_baseline);
    reward_baseline = 0.9 * reward_baseline + 0.1 * reward;

    for (int s = 0; s < slots; ++s) {
      reinforce_update(arch_logits[static_cast<std::size_t>(s)],
                       arch_actions[static_cast<std::size_t>(s)], advantage,
                       opts.policy_lr);
    }
    for (int h = 0; h < 4; ++h) {
      reinforce_update(hw_logits[static_cast<std::size_t>(h)],
                       hw_actions[static_cast<std::size_t>(h)], advantage,
                       opts.policy_lr);
    }

    if (reward > best_reward) {
      best_reward = reward;
      best.architecture = a;
      best.hardware = config;
      best.metrics = metrics;
    }
  }

  const auto t_end = std::chrono::steady_clock::now();
  best.search_seconds = std::chrono::duration<double>(t_end - t_start).count();
  best.trained_candidates = opts.num_candidates;

  // Full retraining of the winner, as the RL works do after search.
  util::Rng retrain_rng(opts.seed + 1);
  nas::FixedNet fixed(net_config, best.architecture, retrain_rng);
  const nas::FixedTrainResult r = nas::train_fixed_net(fixed, task, opts.retrain);
  best.val_accuracy_pct = r.val_accuracy_pct;
  return best;
}

}  // namespace dance::search

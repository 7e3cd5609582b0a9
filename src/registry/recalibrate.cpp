#include "registry/recalibrate.h"

#include <utility>

#include "evalnet/trainer.h"
#include "obs/registry.h"
#include "util/env.h"

namespace dance::registry {

Recalibrator::Options Recalibrator::Options::from_env() {
  Options o;
  o.min_samples = util::env_int("DANCE_REGISTRY_RECAL_MIN", o.min_samples, 1);
  o.epochs = util::env_int("DANCE_REGISTRY_RECAL_EPOCHS", o.epochs, 1);
  o.batch_size = util::env_int("DANCE_REGISTRY_RECAL_BATCH", o.batch_size, 1);
  o.seed = util::env_u64("DANCE_REGISTRY_RECAL_SEED", o.seed);
  return o;
}

Recalibrator::Recalibrator(ModelRegistry& registry, std::string model,
                           serve::CostQueryBackend& oracle, Options opts)
    : registry_(registry),
      model_(std::move(model)),
      oracle_(oracle),
      opts_(opts) {
  if (!opts_.synchronous) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

Recalibrator::~Recalibrator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Recalibrator::observe(const std::vector<float>& encoding) {
  std::vector<float> key = serve::canonical_key(encoding);
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.observed;
  if (!seen_.insert(std::move(key)).second) return;  // already labeled/queued
  queue_.push_back(encoding);
  cv_.notify_one();
}

void Recalibrator::label_queued(std::deque<std::vector<float>> batch) {
  if (batch.empty()) return;
  std::vector<serve::Request> requests;
  requests.reserve(batch.size());
  for (auto& enc : batch) requests.push_back(serve::Request{std::move(enc)});
  // Ground-truth labeling: the oracle is the exact backend, so every answer
  // is a label.
  const std::vector<serve::Response> answers = oracle_.query_batch(requests);

  const hwgen::HwSearchSpace& hw = registry_.hw_space();
  std::vector<evalnet::EvalSample> labeled;
  labeled.reserve(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const serve::Response& r = answers[i];
    evalnet::EvalSample s;
    s.arch_enc = requests[i].encoding;
    s.hw_labels = {hw.pe_index(r.config.pe_x), hw.pe_index(r.config.pe_y),
                   hw.rf_index(r.config.rf_size),
                   hw.dataflow_index(r.config.dataflow)};
    s.hw_enc = hw.encode(r.config);
    s.metrics = {r.metrics.latency_ms, r.metrics.energy_mj,
                 r.metrics.area_mm2};
    labeled.push_back(std::move(s));
  }

  std::lock_guard<std::mutex> lk(mu_);
  stats_.labeled += labeled.size();
  obs::Registry::global()
      .counter("registry.recal.labeled")
      .inc(labeled.size());
  for (auto& s : labeled) buffer_.push_back(std::move(s));
}

std::uint64_t Recalibrator::maybe_train() {
  std::vector<evalnet::EvalSample> snapshot;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (buffer_.size() < static_cast<std::size_t>(opts_.min_samples)) {
      return 0;
    }
    snapshot.swap(buffer_);
  }
  // Fine-tuning starts from the live generation's weights; with nothing
  // published yet there is nothing to recalibrate.
  const std::uint64_t live = registry_.live_generation(model_);
  if (live == 0) return 0;

  evalnet::EvaluatorDataset ds;
  ds.arch_encoding_width = static_cast<int>(snapshot.front().arch_enc.size());
  ds.hw_encoding_width = registry_.hw_space().encoding_width();
  ds.samples = std::move(snapshot);

  evalnet::TrainOptions topts;
  topts.epochs = opts_.epochs;
  topts.batch_size = opts_.batch_size;
  topts.seed = opts_.seed;
  auto evaluator = registry_.load_evaluator(model_, live);
  // Validation on the training buffer itself: the buffer is small and the
  // numbers only feed logs; shadow A/B is the real acceptance gate.
  evalnet::train_hwgen_net(evaluator->hwgen_net(), ds, ds, topts);
  evalnet::train_cost_net(evaluator->cost_net(), ds, ds, topts);

  const std::uint64_t gen =
      registry_.publish(model_, *evaluator, /*as_candidate=*/true);
  obs::Registry::global().counter("registry.recal.trainings").inc();
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.trainings;
  stats_.last_published = gen;
  return gen;
}

std::uint64_t Recalibrator::train_now() {
  std::deque<std::vector<float>> batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch.swap(queue_);
  }
  label_queued(std::move(batch));
  return maybe_train();
}

void Recalibrator::worker_loop() {
  for (;;) {
    std::deque<std::vector<float>> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;  // shutdown drops unlabeled queue (cheap to redo)
      batch.swap(queue_);
    }
    label_queued(std::move(batch));
    (void)maybe_train();
  }
}

Recalibrator::Stats Recalibrator::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t Recalibrator::buffered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buffer_.size();
}

}  // namespace dance::registry

// Reproduction of the §4.2 in-text speed claim: "the inference time for the
// hardware generation network takes about 0.5ms with a single GPU, while the
// exhaustive search takes about 112s using 48 threads".
//
// We time, on the same machine:
//   - exhaustive hardware generation with direct cost-model evaluation,
//     serial and on the runtime thread pool,
//   - exhaustive generation through the per-choice cost table, a single-lane
//     scan over the configs no lower-index config dominates, under EDAP and
//     under the paper's Eq. 3 weights,
//   - hardware generation *network* inference, alone and as part of the
//     full evaluator's single-row forward_batch.
// Expected shape: the learned generator is orders of magnitude faster than
// the exact search, which is the paper's argument for making it a network;
// the pool-parallel exact search beats the serial one by ~#lanes on
// machines with hardware_concurrency() > 1.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "arch/cost_table.h"
#include "evalnet/evaluator.h"
#include "evalnet/hwgen_net.h"
#include "hwgen/exhaustive.h"
#include "runtime/thread_pool.h"

namespace {

using namespace dance;

struct Env {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space;
  accel::CostModel model;
  std::unique_ptr<arch::CostTable> table;
  util::Rng rng{9};
  accel::HwCost cost_fn = accel::edap_cost();

  Env() { table = std::make_unique<arch::CostTable>(arch_space, hw_space, model); }
};

Env& env() {
  static Env e;
  return e;
}

void BM_ExhaustiveDirect(benchmark::State& state) {
  Env& e = env();
  hwgen::ExhaustiveSearch search(e.hw_space, e.model);
  const auto layers = e.arch_space.lower(e.arch_space.random(e.rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.run(layers, e.cost_fn));
  }
}
BENCHMARK(BM_ExhaustiveDirect)->Unit(benchmark::kMillisecond);

void BM_ExhaustiveDirectSerial(benchmark::State& state) {
  Env& e = env();
  hwgen::ExhaustiveSearch search(e.hw_space, e.model);
  const auto layers = e.arch_space.lower(e.arch_space.random(e.rng));
  const runtime::SerialGuard serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.run(layers, e.cost_fn));
  }
}
BENCHMARK(BM_ExhaustiveDirectSerial)->Unit(benchmark::kMillisecond);

/// Both instantiations of the table scan: EDAP, which serve::ExactBackend
/// answers with, and Eq. 3 with the paper's Table 2 weights.
void BM_ExhaustiveViaLut(benchmark::State& state, const accel::HwCost& cost) {
  Env& e = env();
  const arch::Architecture a = e.arch_space.random(e.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.table->optimal(a, cost));
  }
}
BENCHMARK_CAPTURE(BM_ExhaustiveViaLut, Edap, accel::edap_cost())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExhaustiveViaLut, Linear, accel::linear_cost())
    ->Unit(benchmark::kMicrosecond);

void BM_EvaluateAllConfigs(benchmark::State& state) {
  Env& e = env();
  hwgen::ExhaustiveSearch search(e.hw_space, e.model);
  const auto layers = e.arch_space.lower(e.arch_space.random(e.rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.evaluate_all(layers));
  }
}
BENCHMARK(BM_EvaluateAllConfigs)->Unit(benchmark::kMillisecond);

void BM_EvaluateAllConfigsSerial(benchmark::State& state) {
  Env& e = env();
  hwgen::ExhaustiveSearch search(e.hw_space, e.model);
  const auto layers = e.arch_space.lower(e.arch_space.random(e.rng));
  const runtime::SerialGuard serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.evaluate_all(layers));
  }
}
BENCHMARK(BM_EvaluateAllConfigsSerial)->Unit(benchmark::kMillisecond);

// --- the analytical hot path: whole network vs the batched layer entry ------

void BM_NetworkCost(benchmark::State& state) {
  Env& e = env();
  const auto layers = e.arch_space.lower(e.arch_space.random(e.rng));
  const accel::AcceleratorConfig cfg = e.hw_space.config_at(e.hw_space.size() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.model.network_cost(cfg, layers));
  }
}
BENCHMARK(BM_NetworkCost)->Unit(benchmark::kMicrosecond);

void BM_LayerCostBatch(benchmark::State& state) {
  Env& e = env();
  const auto layers = e.arch_space.lower(e.arch_space.random(e.rng));
  const accel::AcceleratorConfig cfg = e.hw_space.config_at(e.hw_space.size() / 2);
  std::vector<accel::LayerCost> out(layers.size());
  for (auto _ : state) {
    e.model.layer_cost_batch(cfg, layers, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LayerCostBatch)->Unit(benchmark::kMicrosecond);

void BM_CostTableBuild(benchmark::State& state) {
  Env& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arch::CostTable(e.arch_space, e.hw_space, e.model));
  }
}
BENCHMARK(BM_CostTableBuild)->Unit(benchmark::kMillisecond);

void BM_HwGenNetInference(benchmark::State& state) {
  Env& e = env();
  evalnet::HwGenNet net(e.arch_space.encoding_width(), e.hw_space, e.rng);
  net.set_training(false);
  const arch::Architecture a = e.arch_space.random(e.rng);
  tensor::Variable enc(tensor::Tensor::from(
      {1, e.arch_space.encoding_width()}, e.arch_space.encode(a)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict(enc));
  }
}
BENCHMARK(BM_HwGenNetInference)->Unit(benchmark::kMillisecond);

/// The full evaluator answering the same single-row query through
/// Evaluator::forward_batch, as serve::SurrogateBackend does in process:
/// hwgen trunk, hard argmax heads and cost trunk in one deterministic
/// forward.
void BM_EvaluatorForwardBatchRow(benchmark::State& state) {
  Env& e = env();
  util::Rng rng(9);
  evalnet::Evaluator evaluator(e.arch_space.encoding_width(), e.hw_space, rng);
  evaluator.set_frozen(true);
  evaluator.set_training(false);
  const std::vector<std::vector<float>> rows = {
      e.arch_space.encode(e.arch_space.random(rng))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.forward_batch(rows));
  }
}
BENCHMARK(BM_EvaluatorForwardBatchRow)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== §4.2 in-text: hardware generation speed, learned network vs "
              "exact search ==\n");
  std::printf("paper: network inference ~0.5 ms vs exhaustive search ~112 s "
              "(48 threads).\n");
  std::printf("runtime pool lanes: %d (*Serial variants force inline "
              "execution; the ratio is the pool speedup).\n\n",
              dance::runtime::global_pool().num_threads());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

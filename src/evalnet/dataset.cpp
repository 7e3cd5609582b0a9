#include "evalnet/dataset.h"

#include <stdexcept>

#include "runtime/profiler.h"
#include "runtime/thread_pool.h"

namespace dance::evalnet {

EvaluatorDataset generate_evaluator_dataset(const arch::CostTable& table,
                                            const accel::HwCost& cost_fn,
                                            int count, util::Rng& rng) {
  if (count <= 0) throw std::invalid_argument("generate_evaluator_dataset: count");
  DANCE_PROFILE_SCOPE("evalnet.dataset.generate");
  const auto& arch_space = table.arch_space();
  const auto& hw_space = table.hw_space();

  // Draw all architectures up-front on the caller's RNG so the sample stream
  // is independent of the thread count; the exhaustive hardware generation
  // per sample (the expensive part) then fans out over the pool, each lane
  // writing its own pre-sized slot.
  std::vector<arch::Architecture> archs;
  archs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) archs.push_back(arch_space.random(rng));

  EvaluatorDataset ds;
  ds.arch_encoding_width = arch_space.encoding_width();
  ds.hw_encoding_width = hw_space.encoding_width();
  ds.samples.resize(static_cast<std::size_t>(count));
  runtime::global_pool().parallel_for(0, count, /*grain=*/1, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      const auto si = static_cast<std::size_t>(i);
      const arch::Architecture& a = archs[si];
      const hwgen::HwSearchResult best = table.optimal(a, cost_fn);
      EvalSample& s = ds.samples[si];
      s.arch_enc = arch_space.encode(a);
      s.hw_labels = {hw_space.pe_index(best.config.pe_x),
                     hw_space.pe_index(best.config.pe_y),
                     hw_space.rf_index(best.config.rf_size),
                     hw_space.dataflow_index(best.config.dataflow)};
      s.hw_enc = hw_space.encode(best.config);
      s.metrics = {best.metrics.latency_ms, best.metrics.energy_mj,
                   best.metrics.area_mm2};
    }
  });
  return ds;
}

std::pair<EvaluatorDataset, EvaluatorDataset> split_dataset(
    const EvaluatorDataset& ds, double train_fraction) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("split_dataset: fraction out of (0,1)");
  }
  const std::size_t n_train =
      static_cast<std::size_t>(train_fraction * static_cast<double>(ds.samples.size()));
  EvaluatorDataset train;
  EvaluatorDataset val;
  train.arch_encoding_width = val.arch_encoding_width = ds.arch_encoding_width;
  train.hw_encoding_width = val.hw_encoding_width = ds.hw_encoding_width;
  train.samples.assign(ds.samples.begin(),
                       ds.samples.begin() + static_cast<std::ptrdiff_t>(n_train));
  val.samples.assign(ds.samples.begin() + static_cast<std::ptrdiff_t>(n_train),
                     ds.samples.end());
  return {std::move(train), std::move(val)};
}

}  // namespace dance::evalnet

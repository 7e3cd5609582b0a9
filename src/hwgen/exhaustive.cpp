#include "hwgen/exhaustive.h"

#include <limits>
#include <stdexcept>
#include <vector>

#include "runtime/profiler.h"
#include "runtime/thread_pool.h"

namespace dance::hwgen {

namespace {

/// With ~13.9k configs and a cost-model call per config, a handful of
/// configs per chunk keeps every lane busy without oversubmitting.
constexpr long kConfigGrain = 16;

/// Serial arg-min over a dense cost vector; keeps the first index at the
/// minimum (strict `<`), exactly like the historical serial scan.
std::size_t argmin_index(const std::vector<double>& costs) {
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (costs[i] < best_cost) {
      best_cost = costs[i];
      best = i;
    }
  }
  return best;
}

}  // namespace

ExhaustiveSearch::ExhaustiveSearch(const HwSearchSpace& space,
                                   const accel::CostModel& model)
    : space_(space), model_(model) {}

HwSearchResult ExhaustiveSearch::run(std::span<const accel::ConvShape> layers,
                                     const accel::HwCost& cost_fn) const {
  if (layers.empty()) throw std::invalid_argument("ExhaustiveSearch: no layers");
  DANCE_PROFILE_SCOPE("hwgen.exhaustive.run");
  // Each lane fills a disjoint slice of `costs`; the cost model and
  // `cost_fn` are both stateless. The arg-min itself stays serial, so the
  // result is bit-identical to the serial scan at any thread count.
  std::vector<double> costs(space_.size());
  runtime::global_pool().parallel_for(
      0, static_cast<long>(space_.size()), kConfigGrain,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          costs[idx] =
              cost_fn(model_.network_cost(space_.config_at(idx), layers));
        }
      });
  const std::size_t best = argmin_index(costs);
  HwSearchResult result;
  result.config = space_.config_at(best);
  result.metrics = model_.network_cost(result.config, layers);
  result.cost = costs[best];
  return result;
}

HwSearchResult ExhaustiveSearch::run_precomputed(
    std::span<const accel::CostMetrics> metrics,
    const accel::HwCost& cost_fn) const {
  if (metrics.size() != space_.size()) {
    throw std::invalid_argument("ExhaustiveSearch: metrics size mismatch");
  }
  HwSearchResult best;
  best.cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double cost = cost_fn(metrics[i]);
    if (cost < best.cost) {
      best = HwSearchResult{space_.config_at(i), metrics[i], cost};
    }
  }
  return best;
}

std::vector<accel::CostMetrics> ExhaustiveSearch::evaluate_all(
    std::span<const accel::ConvShape> layers) const {
  DANCE_PROFILE_SCOPE("hwgen.exhaustive.evaluate_all");
  std::vector<accel::CostMetrics> out(space_.size());
  runtime::global_pool().parallel_for(
      0, static_cast<long>(space_.size()), kConfigGrain,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          out[idx] = model_.network_cost(space_.config_at(idx), layers);
        }
      });
  return out;
}

}  // namespace dance::hwgen

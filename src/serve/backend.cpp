#include "serve/backend.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"

namespace dance::serve {

ExactBackend::ExactBackend(const arch::CostProvider& table,
                           accel::HwCostFn cost_fn)
    : table_(table), cost_fn_(std::move(cost_fn)) {
  if (!cost_fn_) {
    throw std::invalid_argument("ExactBackend: cost_fn must be callable");
  }
}

std::vector<Response> ExactBackend::query_batch(
    std::span<const Request> requests) {
  const arch::ArchSpace& space = table_.arch_space();
  std::vector<Response> out;
  out.reserve(requests.size());
  for (const Request& req : requests) {
    if (static_cast<int>(req.encoding.size()) != space.encoding_width()) {
      throw std::invalid_argument("ExactBackend: encoding width mismatch");
    }
    const arch::Architecture a = space.decode(req.encoding);
    const hwgen::HwSearchResult best = table_.optimal(a, cost_fn_);
    out.push_back(Response{best.metrics, best.config, /*cached=*/false});
  }
  return out;
}

namespace {

/// Decodes one response from contiguous [3] metrics and [hw_width] one-hot
/// rows of the plan output.
Response decode_response(const float* metrics_row, const float* hw_row,
                         const std::array<std::pair<int, int>, 4>& ranges,
                         const hwgen::HwSearchSpace& space) {
  Response resp;
  resp.metrics.latency_ms = metrics_row[0];
  resp.metrics.energy_mj = metrics_row[1];
  resp.metrics.area_mm2 = metrics_row[2];
  // The deterministic heads are exact one-hots; argmax recovers the index.
  std::array<int, 4> arg{};
  for (int h = 0; h < 4; ++h) {
    const auto [begin, end] = ranges[static_cast<std::size_t>(h)];
    int best = begin;
    for (int c = begin + 1; c < end; ++c) {
      if (hw_row[c] > hw_row[best]) best = c;
    }
    arg[static_cast<std::size_t>(h)] = best - begin;
  }
  resp.config = accel::AcceleratorConfig{
      space.pe_value(arg[0]), space.pe_value(arg[1]), space.rf_value(arg[2]),
      space.dataflow_value(arg[3])};
  return resp;
}

/// Serving prerequisite: frozen parameters, eval-mode batch norm. Without
/// eval mode the deterministic forward (and so Plan::compile) throws.
evalnet::Evaluator& freeze_for_serving(evalnet::Evaluator& evaluator) {
  evaluator.set_frozen(true);
  evaluator.set_training(false);
  return evaluator;
}

}  // namespace

SurrogateBackend::SurrogateBackend(evalnet::Evaluator& evaluator)
    : evaluator_(freeze_for_serving(evaluator)),
      plan_(infer::Plan::compile(evaluator_)) {}

std::vector<Response> SurrogateBackend::query_batch(
    std::span<const Request> requests) {
  auto& reg = obs::Registry::global();
  reg.counter("infer.batches.fused").inc();
  reg.counter("infer.queries.fused").inc(requests.size());

  const int n = static_cast<int>(requests.size());
  const int width = plan_.arch_width();
  float* input = arena_.stage_input(n, width);
  for (int i = 0; i < n; ++i) {
    const auto& enc = requests[static_cast<std::size_t>(i)].encoding;
    if (static_cast<int>(enc.size()) != width) {
      throw std::invalid_argument("SurrogateBackend: encoding width mismatch");
    }
    std::memcpy(input + static_cast<std::size_t>(i) * width, enc.data(),
                static_cast<std::size_t>(width) * sizeof(float));
  }
  metrics_.resize(static_cast<std::size_t>(n) * 3);
  hw_.resize(static_cast<std::size_t>(n) * plan_.hw_width());
  plan_.run(input, n, metrics_.data(), hw_.data(), arena_);

  const auto& ranges = plan_.head_ranges();
  const hwgen::HwSearchSpace& space = evaluator_.hwgen_net().space();
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (int r = 0; r < n; ++r) {
    responses.push_back(decode_response(
        metrics_.data() + 3 * r,
        hw_.data() + static_cast<std::size_t>(r) * plan_.hw_width(), ranges,
        space));
  }
  return responses;
}

}  // namespace dance::serve

#include "serve/backend.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"

namespace dance::serve {

ExactBackend::ExactBackend(const arch::CostTable& table) : table_(table) {}

ExactBackend::ExactBackend(const arch::CostTable& table,
                           const accel::HwCostFn& cost_fn)
    : ExactBackend(table) {
  if (cost_fn.target<accel::Edap>() == nullptr) {
    throw std::invalid_argument("ExactBackend: serves EDAP only");
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
    const hwgen::HwSearchResult best = table_.optimal(a, accel::Edap{});
    out.push_back(Response{best.metrics, best.config, /*cached=*/false});
  }
  return out;
}

namespace {

/// Decodes one response from row `r` of the [N, 3] metrics and the
/// [N, hw_width] one-hot hardware encoding.
Response decode_response(const tensor::Tensor& metrics,
                         const tensor::Tensor& hw, int r,
                         const std::array<std::pair<int, int>, 4>& ranges,
                         const hwgen::HwSearchSpace& space) {
  Response resp;
  resp.metrics.latency_ms = metrics.at(r, 0);
  resp.metrics.energy_mj = metrics.at(r, 1);
  resp.metrics.area_mm2 = metrics.at(r, 2);
  // The deterministic heads are exact one-hots; argmax recovers the index.
  std::array<int, 4> arg{};
  for (int h = 0; h < 4; ++h) {
    const auto [begin, end] = ranges[static_cast<std::size_t>(h)];
    int best = begin;
    for (int c = begin + 1; c < end; ++c) {
      if (hw.at(r, c) > hw.at(r, best)) best = c;
    }
    arg[static_cast<std::size_t>(h)] = best - begin;
  }
  resp.config = accel::AcceleratorConfig{
      space.pe_value(arg[0]), space.pe_value(arg[1]), space.rf_value(arg[2]),
      space.dataflow_value(arg[3])};
  return resp;
}

/// Serving prerequisite: frozen parameters, eval-mode batch norm. Without
/// eval mode the deterministic forward throws.
evalnet::Evaluator& freeze_for_serving(evalnet::Evaluator& evaluator) {
  evaluator.set_frozen(true);
  evaluator.set_training(false);
  return evaluator;
}

}  // namespace

SurrogateBackend::SurrogateBackend(evalnet::Evaluator& evaluator)
    : evaluator_(freeze_for_serving(evaluator)) {}

std::vector<Response> SurrogateBackend::query_batch(
    std::span<const Request> requests) {
  if (requests.empty()) return {};
  // The benchmark reads this counter into its per-layer infer.fused_pct and
  // requires that metric of every traced run; it goes with the benchmark's
  // surrogate workload.
  obs::Registry::global().counter("infer.queries.fused").inc(requests.size());
  const int n = static_cast<int>(requests.size());
  const std::size_t width = requests.front().encoding.size();
  tensor::Tensor stacked({n, static_cast<int>(width)});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& enc = requests[i].encoding;
    if (enc.size() != width) {
      throw std::invalid_argument("SurrogateBackend: encoding width mismatch");
    }
    std::memcpy(stacked.data() + i * width, enc.data(), width * sizeof(float));
  }
  const auto out =
      evaluator_.forward_deterministic(tensor::Variable(std::move(stacked)));

  const auto ranges = evaluator_.hwgen_net().head_ranges();
  const hwgen::HwSearchSpace& space = evaluator_.hwgen_net().space();
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (int r = 0; r < n; ++r) {
    responses.push_back(decode_response(out.metrics.value(),
                                        out.hw_encoding.value(), r, ranges,
                                        space));
  }
  return responses;
}

}  // namespace dance::serve

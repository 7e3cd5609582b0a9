#pragma once

#include <span>
#include <vector>

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "evalnet/evaluator.h"
#include "serve/types.h"

namespace dance::serve {

/// A cost-query answering backend. `query_batch` answers N requests in one
/// call — `Service::query_many` hands it all of its unique misses at once,
/// so backends should answer a batch cheaper than N single queries where
/// they can (the surrogate stacks all rows into one network forward; the
/// exact backend walks the LUT per request).
///
/// Determinism contract: both shipped backends are pure functions of the
/// request — answering the same encoding twice, in any order, at any batch
/// position, yields bit-identical responses. The memoization cache and
/// `query_many`'s within-call dedup both rely on this.
class CostQueryBackend {
 public:
  virtual ~CostQueryBackend() = default;

  /// Answers `requests` in order; the result has exactly one response per
  /// request. The Service holds one mutex around every call, so only
  /// backends with unsynchronized per-call state still rely on it (a timing
  /// decorator that shares a span buffer across calls is one). Both shipped
  /// backends keep no state between calls and may be called concurrently.
  [[nodiscard]] virtual std::vector<Response> query_batch(
      std::span<const Request> requests) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Ground-truth backend: argmax-decodes the encoding to a concrete
/// architecture and runs exact hardware generation through the per-choice
/// cost LUT (bit-identical to direct cost-model evaluation). It always
/// serves the paper's Eq. 4 EDAP, through the inlined
/// `CostTable::optimal(a, accel::Edap{})` scan.
class ExactBackend : public CostQueryBackend {
 public:
  explicit ExactBackend(const arch::CostTable& table);

  /// The two-argument form perfbench still constructs. `cost_fn` must be
  /// `accel::edap_cost()`; any other cost throws std::invalid_argument
  /// rather than being silently served as EDAP.
  ExactBackend(const arch::CostTable& table, const accel::HwCostFn& cost_fn);

  [[nodiscard]] std::vector<Response> query_batch(
      std::span<const Request> requests) override;
  [[nodiscard]] const char* name() const override { return "exact"; }

 private:
  const arch::CostTable& table_;
};

/// Trained-surrogate backend: one Evaluator::forward_deterministic over the
/// stacked [N, W] batch per call, so every answer is bit-identical to
/// Evaluator::forward_batch on the same rows. Construction puts the
/// evaluator into frozen eval mode, the deterministic-inference
/// prerequisite; a frozen, eval-mode evaluator only reads its parameters,
/// so concurrent query_batch calls are safe. The hardware configuration is
/// decoded from the tau-frozen one-hot heads.
class SurrogateBackend : public CostQueryBackend {
 public:
  explicit SurrogateBackend(evalnet::Evaluator& evaluator);

  [[nodiscard]] std::vector<Response> query_batch(
      std::span<const Request> requests) override;
  [[nodiscard]] const char* name() const override { return "surrogate"; }

 private:
  evalnet::Evaluator& evaluator_;
};

}  // namespace dance::serve

#include "serve/stack.h"

#include <cstdio>
#include <stdexcept>

#include "accel/cost_function.h"
#include "arch/cost_table.h"
#include "util/rng.h"

namespace dance::serve {

namespace {

/// A backend plus the table or evaluator it borrows; `backend` is declared
/// last so it is destroyed first.
struct OwningBackend final : CostQueryBackend {
  std::vector<Response> query_batch(
      std::span<const Request> requests) override {
    return backend->query_batch(requests);
  }
  const char* name() const override { return backend->name(); }

  std::unique_ptr<arch::CostTable> table;
  std::unique_ptr<evalnet::Evaluator> evaluator;
  std::unique_ptr<CostQueryBackend> backend;
};

}  // namespace

std::unique_ptr<CostQueryBackend> make_backend(
    const BackendSpec& spec, const arch::ArchSpace& arch_space,
    const hwgen::HwSearchSpace& hw_space) {
  auto out = std::make_unique<OwningBackend>();
  if (spec.kind == "exact") {
    out->table = std::make_unique<arch::CostTable>(arch_space, hw_space,
                                                   accel::CostModel{});
    out->backend =
        std::make_unique<ExactBackend>(*out->table, accel::edap_cost());
  } else if (spec.kind == "surrogate") {
    util::Rng rng(17);
    auto& ev = out->evaluator = std::make_unique<evalnet::Evaluator>(
        arch_space.encoding_width(), hw_space, rng);
    if (!spec.hwgen_ckpt.empty()) ev->hwgen_net().load(spec.hwgen_ckpt);
    if (!spec.cost_ckpt.empty()) ev->cost_net().load(spec.cost_ckpt);
    if (spec.hwgen_ckpt.empty() && spec.cost_ckpt.empty()) {
      std::fprintf(stderr,
                   "[serve] note: surrogate backend running with untrained "
                   "weights (pass --hwgen-ckpt/--cost-ckpt)\n");
    }
    out->backend = std::make_unique<SurrogateBackend>(*ev);
  } else {
    throw std::invalid_argument("unknown backend kind: " + spec.kind);
  }
  return out;
}

}  // namespace dance::serve

#pragma once

#include <string>

#include "arch/space.h"
#include "registry/recalibrate.h"
#include "registry/registry.h"
#include "registry/shadow.h"
#include "serve/service.h"

namespace dance::registry {

/// Registry-aware front-end (serve_jsonl --registry, registry-mode cluster
/// shards): the query step it plugs into serve::wire::answer_with pins the
/// request's model (its optional `"model"` field, else the default model)
/// to the live generation, queries through the generation-scoped cache key
/// (ModelRegistry::make_request), stamps `generation` into the response and
/// offers the query to the shadow mirror and the recalibration driver (both
/// optional, both off the response path). Before the pipeline it answers
/// `{"cmd": "reload"}`: re-read the MANIFEST, hot-swap externally published
/// generations, reply `{"reloaded": true, "swaps": N}`.
class Frontend {
 public:
  /// `service` must be backed by a RegistryBackend. `shadow` and `recal`
  /// may be null.
  Frontend(ModelRegistry& registry, serve::Service& service,
           std::string default_model, ShadowMirror* shadow = nullptr,
           Recalibrator* recal = nullptr);

  /// Same contract as serve::wire::answer_line (empty string for blank
  /// lines, error lines instead of exceptions).
  [[nodiscard]] std::string answer_line(const std::string& line,
                                        const arch::ArchSpace& space);

 private:
  ModelRegistry& registry_;
  serve::Service& service_;
  std::string default_model_;
  ShadowMirror* shadow_;
  Recalibrator* recal_;
};

}  // namespace dance::registry

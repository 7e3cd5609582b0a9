#include "registry/serving.h"

#include <exception>
#include <utility>

#include "serve/wire.h"

namespace dance::registry {

Frontend::Frontend(ModelRegistry& registry, serve::Service& service,
                   std::string default_model, ShadowMirror* shadow,
                   Recalibrator* recal)
    : registry_(registry),
      service_(service),
      default_model_(std::move(default_model)),
      shadow_(shadow),
      recal_(recal) {}

std::string Frontend::answer_line(const std::string& line,
                                  const arch::ArchSpace& space) {
  namespace wire = serve::wire;
  if (const auto cmd = wire::parse_string_field(line, "cmd")) {
    if (*cmd == "reload") {
      try {
        const std::size_t swaps = registry_.reload();
        return "{\"reloaded\": true, \"swaps\": " + std::to_string(swaps) +
               "}";
      } catch (const std::exception& e) {
        return wire::error_line(-1, e.what());
      }
    }
    return wire::error_line(-1, "unknown cmd: " + *cmd);
  }

  return wire::answer_with(line, space, [&](wire::ParsedRequest& request) {
    const std::string model =
        wire::parse_string_field(line, "model").value_or(default_model_);
    // The pin taken here rides inside the Request through the cache, the
    // batcher and the backend: this query answers on this generation even
    // if a publish lands while it is in flight.
    const VersionPtr pin = registry_.pin(model);
    serve::Response response = service_.query(
        ModelRegistry::make_request(pin, request.encoding));
    // Authoritative even for cache hits (a hit's key carries this exact
    // generation by construction) and snapshot-restored entries.
    response.generation = pin->generation();
    if (shadow_ != nullptr) shadow_->observe(model, request.encoding, response);
    if (recal_ != nullptr) recal_->observe(request.encoding);
    return response;
  });
}

}  // namespace dance::registry

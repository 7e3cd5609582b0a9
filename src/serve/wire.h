#pragma once

#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "arch/space.h"
#include "obs/span.h"
#include "serve/service.h"
#include "serve/types.h"

namespace dance::serve::wire {

/// The JSON-lines wire protocol shared by every front-end — the stdin
/// example (examples/serve_jsonl), the socket shard servers and the cluster
/// router all parse and serialize through these functions, so a request
/// answered over any transport produces byte-identical lines (the cluster
/// CI smoke literally `diff`s them).
///
/// Request (one object per line, whitespace-insensitive, keys any order):
///   {"id": 1, "arch": [0, 3, 6, 0, 1, 2, 4, 5, 0]}   per-slot op indices
///   {"id": 2, "encoding": [1.0, 0.0, ...]}           raw evaluator encoding
/// "id" is optional; when present it must be an integer that fits a long.
/// Arrays take exactly one ',' between numbers.
/// Response:
///   {"id": 1, "latency_ms": ..., "energy_mj": ..., "area_mm2": ...,
///    "pe_x": 16, "pe_y": 16, "rf_size": 32, "dataflow": "RS",
///    "cached": false, "degraded": false}
/// Registry-served responses append `, "generation": N` (N > 0). The field
/// is omitted when generation is 0 so non-registry deployments keep the
/// exact historical bytes (the cluster CI smoke diffs them).
/// Errors:
///   {"id": 1, "error": "..."}   (id -1 when the request carried no valid id)

/// Reads the double-quoted string value of `key` (no escape handling —
/// values are identifiers like model names, not free text).
[[nodiscard]] std::optional<std::string> parse_string_field(
    const std::string& line, const char* key);

/// True for lines with nothing but whitespace — skipped, never answered.
[[nodiscard]] bool is_blank(const std::string& line);

/// A validated request: the id (-1 when absent) and the evaluator encoding,
/// already checked against the space (op-index range, encoding width).
struct ParsedRequest {
  long id = -1;
  std::vector<float> encoding;
};

/// Outcome of parsing one line: either a valid request or the error message
/// the caller must answer with (via `error_line(id, error)`).
struct ParseOutcome {
  bool ok = false;
  ParsedRequest request;
  std::string error;
};

[[nodiscard]] ParseOutcome parse_request(const std::string& line,
                                         const arch::ArchSpace& space);

/// Serializers. Exact output bytes are part of the protocol contract:
/// floats go through "%.6g", booleans are literal true/false. error_line
/// JSON-escapes its message ('"' and '\\' backslash-escaped, other control
/// characters as \u00XX), so any message yields one valid line.
[[nodiscard]] std::string response_line(long id, const Response& response);
[[nodiscard]] std::string error_line(long id, const std::string& message);

/// The per-line pipeline behind every front-end: "" for blank lines (no
/// response owed), the error line for malformed ones, otherwise
/// `query(ParsedRequest&) -> Response` (which may consume the encoding)
/// inside the `serve.wire.request` span, serialized. Exceptions become
/// error lines; this function does not throw.
template <class Query>
[[nodiscard]] std::string answer_with(const std::string& line,
                                      const arch::ArchSpace& space,
                                      Query&& query) {
  if (is_blank(line)) return "";
  ParseOutcome parsed = parse_request(line, space);
  if (!parsed.ok) return error_line(parsed.request.id, parsed.error);
  try {
    obs::ScopedSpan request_span("serve.wire.request");
    return response_line(parsed.request.id, query(parsed.request));
  } catch (const std::exception& e) {
    return error_line(parsed.request.id, e.what());
  }
}

/// answer_with over `service`: the plain single-backend pipeline.
[[nodiscard]] std::string answer_line(const std::string& line,
                                      const arch::ArchSpace& space,
                                      Service& service);

}  // namespace dance::serve::wire

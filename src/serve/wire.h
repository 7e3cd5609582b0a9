#pragma once

#include <string>
#include <vector>

#include "arch/space.h"
#include "serve/service.h"
#include "serve/types.h"

namespace dance::serve::wire {

/// The JSON-lines wire protocol shared by every front-end — the stdin
/// example (examples/serve_jsonl), the socket shard servers and the cluster
/// router all parse and serialize through these functions, so a request
/// answered over any transport produces byte-identical lines (the cluster
/// CI smoke literally `diff`s them).
///
/// Request: exactly one JSON object per line. Whitespace around it is
/// ignored; anything else before or after it makes the line malformed.
/// Keys come in any order:
///   {"id": 1, "arch": [0, 3, 6, 0, 1, 2, 4, 5, 0]}   per-slot op indices
///   {"id": 2, "encoding": [1.0, 0.0, ...]}           raw evaluator encoding
/// "id" is optional; when present it must be an integer that fits a long.
/// Arrays take exactly one ',' between numbers. Every id and array value
/// must be spelled as a JSON number,
///   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
/// so the other spellings strtof/strtol accept (0x1, +1, 1., .5, 01, inf,
/// nan) are errors. Not checked yet: duplicate keys (the first one wins),
/// trailing commas between members, and malformed values under keys this
/// parser does not read. Those need one tokenizer pass over the whole line
/// rather than a per-field patch each (ROADMAP item 3).
/// Response:
///   {"id": 1, "latency_ms": ..., "energy_mj": ..., "area_mm2": ...,
///    "pe_x": 16, "pe_y": 16, "rf_size": 32, "dataflow": "RS",
///    "cached": false, "degraded": false}
/// `degraded` is always `false`: no serving path answers from a fallback
/// tier. The key stays so every existing client and recorded stream keeps
/// parsing the same bytes; dropping it is a wire-format change.
/// Errors:
///   {"id": 1, "error": "..."}   (id -1 when the request carried no valid id)

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
/// floats go through "%.6g", booleans are literal true/false. A response
/// with a NaN or infinite metric has no JSON spelling, so response_line
/// returns `error_line(id, "answer is not finite")` for it. error_line
/// JSON-escapes its message ('"' and '\\' backslash-escaped, other control
/// characters as \u00XX), so any message yields one valid line.
[[nodiscard]] std::string response_line(long id, const Response& response);
[[nodiscard]] std::string error_line(long id, const std::string& message);

/// The per-line pipeline behind every front-end: "" for blank lines (no
/// response owed), the error line for malformed ones, otherwise the
/// `service` answer inside the `serve.wire.request` span, serialized.
/// Exceptions become error lines; this function does not throw.
[[nodiscard]] std::string answer_line(const std::string& line,
                                      const arch::ArchSpace& space,
                                      Service& service);

}  // namespace dance::serve::wire

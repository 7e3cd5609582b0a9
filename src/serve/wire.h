#pragma once

#include <string>
#include <vector>

#include "arch/space.h"
#include "serve/service.h"
#include "serve/types.h"

namespace dance::serve::wire {

/// The JSON-lines wire protocol of the stdin front-end
/// (examples/serve_jsonl): every line is parsed and answered through these
/// functions.
///
/// Request: exactly one JSON object per line, read in one left-to-right
/// pass over this grammar (JSON whitespace ws = space, tab, LF, CR):
///   line   = ws '{' ws [member (ws ',' ws member)*] ws '}' ws
///   member = key ws ':' ws value
///   key    = "id" | "arch" | "encoding"     (compared by their raw bytes)
///   "id"   : a JSON integer that fits a long
///   "arch", "encoding" : '[' ws [number (ws ',' ws number)*] ws ']'
///   number = -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
/// e.g.
///   {"id": 1, "arch": [0, 3, 6, 0, 1, 2, 4, 5, 0]}   per-slot op indices
///   {"id": 2, "encoding": [1, 0, 0, ...]}            one-hot encoding
/// The key set is closed and each key appears at most once, in any order.
/// A request has no string values, so the parser needs no escape decoder:
/// any other key, one spelled with a '\' escape included, is an error.
/// "id" is optional. An array element that is not a JSON number (0x1, +1,
/// 1., .5, 01, inf, nan) reads as NaN and gets its key's value error.
/// Errors found before the closing brace (the envelope, an unknown or a
/// repeated key, a malformed id or array) carry id -1. The value checks
/// run once the object has closed and carry the id, so reordering the
/// members of a well-formed line never changes its answer: both "arch" and
/// "encoding", neither, a wrong width, an op index outside [0, 6], a
/// non-finite encoding value, or an encoding that is not one-hot (each
/// value 0 or 1, -0 reading as 0, with exactly one 1 per
/// kNumCandidateOps-wide slot).
/// Response:
///   {"id": 1, "latency_ms": ..., "energy_mj": ..., "area_mm2": ...,
///    "pe_x": 16, "pe_y": 16, "rf_size": 32, "dataflow": "RS",
///    "cached": false, "degraded": false}
/// `degraded` is always `false`: no serving path answers from a fallback
/// tier. The key stays so every existing client and recorded stream keeps
/// parsing the same bytes; dropping it is a wire-format change.
/// Errors:
///   {"id": 1, "error": "..."}   (id -1 when the line has no id or the
///                                 error came before its closing brace)

/// True for lines with nothing but whitespace — skipped, never answered.
[[nodiscard]] bool is_blank(const std::string& line);

/// A validated request: the id (-1 when absent) and the evaluator encoding,
/// already checked against the space (op-index range, encoding width,
/// one-hot).
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
/// floats are spelled as "%.6g" spells them (std::to_chars, general
/// format, precision 6), booleans are literal true/false. A response
/// with a NaN or infinite metric has no JSON spelling, so response_line
/// returns `error_line(id, "answer is not finite")` for it. error_line
/// JSON-escapes its message ('"' and '\\' backslash-escaped, other control
/// characters as \u00XX), so any message yields one valid line.
[[nodiscard]] std::string response_line(long id, const Response& response);
[[nodiscard]] std::string error_line(long id, const std::string& message);

/// The per-line pipeline behind every front-end: "" for blank lines (no
/// response owed), the error line for malformed ones, otherwise the
/// `service` answer, serialized.
/// Exceptions become error lines; this function does not throw.
[[nodiscard]] std::string answer_line(const std::string& line,
                                      const arch::ArchSpace& space,
                                      Service& service);

}  // namespace dance::serve::wire

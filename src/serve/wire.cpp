#include "serve/wire.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <utility>

#include "arch/ops.h"
#include "obs/span.h"

namespace dance::serve::wire {

namespace {

/// JSON whitespace (RFC 8259): space, tab, line feed and carriage return.
/// Vertical tab and form feed are not among them.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::size_t skip_space(const std::string& line, std::size_t at) {
  while (at < line.size() && is_space(line[at])) ++at;
  return at;
}

/// Finds `"key"` in key position — the quoted name followed by optional
/// whitespace and ':' — and returns the offset of its value (past the ':'
/// and any whitespace), or npos when the key is absent. A string value
/// spelled like a key name (`"model": "encoding"`) is not followed by ':'
/// and is skipped.
std::size_t value_offset(const std::string& line, const char* key) {
  const std::string quoted = std::string("\"") + key + "\"";
  for (std::size_t at = line.find(quoted); at != std::string::npos;
       at = line.find(quoted, at + 1)) {
    const std::size_t colon = skip_space(line, at + quoted.size());
    if (colon < line.size() && line[colon] == ':') {
      return skip_space(line, colon + 1);
    }
  }
  return std::string::npos;
}

/// End of the JSON number starting at `at`, whose grammar is
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or npos when no number
/// starts there. Only the longest match counts: "01" ends after its "0".
std::size_t number_end(const std::string& line, std::size_t at) {
  const char* p = line.data() + at;
  const char* const end = line.data() + line.size();
  const auto skip_digits = [&p, end] {
    if (p == end || !is_digit(*p)) return false;
    while (p != end && is_digit(*p)) ++p;
    return true;
  };
  if (p != end && *p == '-') ++p;
  if (p != end && *p == '0') {
    ++p;
  } else if (!skip_digits()) {
    return std::string::npos;
  }
  if (p != end && *p == '.' && (++p, !skip_digits())) return std::string::npos;
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    if (!skip_digits()) return std::string::npos;
  }
  return static_cast<std::size_t>(p - line.data());
}

/// True when `line` is one {...} object and nothing else but whitespace:
/// its first non-space character opens the object, and the brace that
/// closes it is its last non-space character. Braces inside string
/// literals do not count. strcspn jumps to the next character that
/// matters; it also stops at a NUL byte, which ends the scan only at the
/// end of the line.
bool is_one_object(const std::string& line) {
  const char* p = line.c_str() + skip_space(line, 0);
  const char* const end = line.c_str() + line.size();
  if (p == end || *p != '{') return false;
  int depth = 0;
  for (;; ++p) {
    p += std::strcspn(p, "\"{}");
    if (p == end) return false;  // the object never closes
    if (*p == '"') {
      for (++p;; ++p) {
        p += std::strcspn(p, "\"\\");
        if (p == end) return false;  // unterminated string
        if (*p == '"') break;
        if (*p == '\\' && ++p == end) return false;  // skip the escaped char
      }
    } else if (*p == '{') {
      ++depth;
    } else if (*p == '}' && --depth == 0) {
      return skip_space(line, static_cast<std::size_t>(p + 1 - line.c_str())) ==
             line.size();
    }
  }
}

/// Reads the integer value of `key` into `value`, which is left alone when
/// the key is absent. False when the value is not a JSON integer in the
/// range of a long followed by optional whitespace and ',' or '}'.
bool parse_long_field(const std::string& line, const char* key, long& value) {
  const std::size_t from = value_offset(line, key);
  if (from == std::string::npos) return true;
  const std::size_t end = number_end(line, from);
  if (end == std::string::npos) return false;
  char* stop = nullptr;
  errno = 0;
  const long v = std::strtol(line.c_str() + from, &stop, 10);
  // strtol stops short of `end` at a fraction or an exponent.
  if (stop != line.c_str() + end || errno == ERANGE) return false;
  const std::size_t after = skip_space(line, end);
  if (after >= line.size() || (line[after] != ',' && line[after] != '}')) {
    return false;
  }
  value = v;
  return true;
}

/// The float that the JSON number line[at, end) spells, rounded as strtof
/// rounds it. from_chars is the fast path; it reports overflow and
/// underflow as errors, and those rare inputs keep strtof's answer.
float to_float(const std::string& line, std::size_t at, std::size_t end) {
  float v = 0.0F;
  const auto result =
      std::from_chars(line.data() + at, line.data() + end, v);
  if (result.ec != std::errc()) return std::strtof(line.c_str() + at, nullptr);
  return v;
}

bool ends_element(char c) { return c == ',' || c == ']' || is_space(c); }

/// The array value '[' [element (',' element)*] ']' starting at `at` (a
/// value_offset; npos when the key is absent): exactly one ',' between
/// elements, none before the first or after the last. An element is the
/// run of characters up to the next ',', ']' or whitespace. One that is
/// not a JSON number reads as NaN, which both callers reject element by
/// element (not finite; not an op index).
std::optional<std::vector<float>> parse_array_field(const std::string& line,
                                                    std::size_t at) {
  if (at >= line.size() || line[at] != '[') return std::nullopt;
  at = skip_space(line, at + 1);
  std::vector<float> values;
  if (at < line.size() && line[at] == ']') return values;
  while (true) {
    std::size_t end = number_end(line, at);
    if (end != std::string::npos &&
        (end == line.size() || ends_element(line[end]))) {
      values.push_back(to_float(line, at, end));
    } else {
      end = at;
      while (end < line.size() && !ends_element(line[end])) ++end;
      if (end == at) return std::nullopt;  // empty element
      values.push_back(std::numeric_limits<float>::quiet_NaN());
    }
    at = skip_space(line, end);
    if (at >= line.size()) return std::nullopt;  // unterminated array
    if (line[at] == ']') return values;
    if (line[at] != ',') return std::nullopt;
    at = skip_space(line, at + 1);
  }
}

}  // namespace

bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

ParseOutcome parse_request(const std::string& line,
                           const arch::ArchSpace& space) {
  ParseOutcome out;
  if (!is_one_object(line)) {
    out.error = "request must be one JSON object";
    return out;
  }
  if (!parse_long_field(line, "id", out.request.id)) {
    out.error = "id must be an integer";
    return out;
  }

  // A line naming both keys is ambiguous: neither one silently wins.
  const std::size_t encoding_at = value_offset(line, "encoding");
  const std::size_t arch_at = value_offset(line, "arch");
  if (encoding_at != std::string::npos && arch_at != std::string::npos) {
    out.error = "request must have an 'encoding' or an 'arch', not both";
    return out;
  }
  if (auto enc = parse_array_field(line, encoding_at)) {
    // Finiteness only: soft (non-one-hot) encodings are valid input (the
    // backend argmax-decodes them), but a NaN/inf would answer arbitrarily
    // and poison the cache.
    for (const float v : *enc) {
      if (!std::isfinite(v)) {
        out.error = "encoding values must be finite";
        return out;
      }
    }
    out.request.encoding = std::move(*enc);
  } else if (auto ops = parse_array_field(line, arch_at)) {
    if (static_cast<int>(ops->size()) != space.num_searchable()) {
      out.error = "arch must list one op index per searchable slot";
      return out;
    }
    arch::Architecture a;
    for (const float v : *ops) {
      // Range-check the float before the cast: casting NaN or an
      // out-of-range value to int is undefined behaviour.
      if (!(v >= 0.0F && v < static_cast<float>(arch::kNumCandidateOps)) ||
          v != std::floor(v)) {
        out.error = "arch entries must be integer op indices in [0, 6]";
        return out;
      }
      const int op = static_cast<int>(v);
      a.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(op)]);
    }
    out.request.encoding = space.encode(a);
  } else {
    out.error = "request needs an 'encoding' or 'arch' array";
    return out;
  }

  if (static_cast<int>(out.request.encoding.size()) != space.encoding_width()) {
    out.error = "encoding has the wrong width";
    return out;
  }
  out.ok = true;
  return out;
}

std::string response_line(long id, const Response& r) {
  // "%.6g" would print nan or inf, which no JSON reader accepts.
  if (!std::isfinite(r.metrics.latency_ms) ||
      !std::isfinite(r.metrics.energy_mj) ||
      !std::isfinite(r.metrics.area_mm2)) {
    return error_line(id, "answer is not finite");
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"id\": %ld, \"latency_ms\": %.6g, \"energy_mj\": %.6g, "
      "\"area_mm2\": %.6g, \"pe_x\": %d, \"pe_y\": %d, \"rf_size\": %d, "
      "\"dataflow\": \"%s\", \"cached\": %s, \"degraded\": false}",
      id, r.metrics.latency_ms, r.metrics.energy_mj, r.metrics.area_mm2,
      r.config.pe_x, r.config.pe_y, r.config.rf_size,
      accel::to_string(r.config.dataflow).c_str(), r.cached ? "true" : "false");
  return buf;
}

std::string error_line(long id, const std::string& message) {
  std::string out = "{\"id\": " + std::to_string(id) + ", \"error\": \"";
  for (const char c : message) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"}";
}

std::string answer_line(const std::string& line, const arch::ArchSpace& space,
                        Service& service) {
  if (is_blank(line)) return "";
  ParseOutcome parsed = parse_request(line, space);
  if (!parsed.ok) return error_line(parsed.request.id, parsed.error);
  try {
    obs::ScopedSpan request_span("serve.wire.request");
    return response_line(parsed.request.id,
                         service.query(Request{std::move(parsed.request.encoding)}));
  } catch (const std::exception& e) {
    return error_line(parsed.request.id, e.what());
  }
}

}  // namespace dance::serve::wire

#include "serve/wire.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "arch/ops.h"

namespace dance::serve::wire {

namespace {

std::size_t skip_space(const std::string& line, std::size_t at) {
  while (at < line.size() &&
         std::isspace(static_cast<unsigned char>(line[at]))) {
    ++at;
  }
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

/// Reads the integer value of `key` into `value`, which is left alone when
/// the key is absent. False when the value is not an in-range integer
/// followed by optional whitespace and ',' or '}'.
bool parse_long_field(const std::string& line, const char* key, long& value) {
  const std::size_t from = value_offset(line, key);
  if (from == std::string::npos) return true;
  const char* begin = line.c_str() + from;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(begin, &end, 10);
  if (end == begin || errno == ERANGE) return false;
  const std::size_t after =
      skip_space(line, static_cast<std::size_t>(end - line.c_str()));
  if (after >= line.size() || (line[after] != ',' && line[after] != '}')) {
    return false;
  }
  value = v;
  return true;
}

/// The float array value '[' [number (',' number)*] ']' of `key`: exactly
/// one ',' between numbers, none before the first or after the last.
std::optional<std::vector<float>> parse_array_field(const std::string& line,
                                                    const char* key) {
  std::size_t at = value_offset(line, key);  // npos fails the size check
  if (at >= line.size() || line[at] != '[') return std::nullopt;
  at = skip_space(line, at + 1);
  std::vector<float> values;
  if (at < line.size() && line[at] == ']') return values;
  while (true) {
    char* end = nullptr;
    const float v = std::strtof(line.c_str() + at, &end);
    if (end == line.c_str() + at) return std::nullopt;
    values.push_back(v);
    at = skip_space(line, static_cast<std::size_t>(end - line.c_str()));
    if (at >= line.size()) return std::nullopt;  // unterminated array
    if (line[at] == ']') return values;
    if (line[at] != ',') return std::nullopt;
    ++at;
  }
}

}  // namespace

std::optional<std::string> parse_string_field(const std::string& line,
                                              const char* key) {
  const std::size_t at = value_offset(line, key);  // npos fails below
  if (at >= line.size() || line[at] != '"') return std::nullopt;
  const std::size_t close = line.find('"', at + 1);
  if (close == std::string::npos) return std::nullopt;
  return line.substr(at + 1, close - at - 1);
}

bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

ParseOutcome parse_request(const std::string& line,
                           const arch::ArchSpace& space) {
  ParseOutcome out;
  if (!parse_long_field(line, "id", out.request.id)) {
    out.error = "id must be an integer";
    return out;
  }

  if (auto enc = parse_array_field(line, "encoding")) {
    // Finiteness only: soft (non-one-hot) encodings are valid surrogate
    // input, but a NaN/inf would answer arbitrarily and poison the cache.
    for (const float v : *enc) {
      if (!std::isfinite(v)) {
        out.error = "encoding values must be finite";
        return out;
      }
    }
    out.request.encoding = std::move(*enc);
  } else if (auto ops = parse_array_field(line, "arch")) {
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
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"id\": %ld, \"latency_ms\": %.6g, \"energy_mj\": %.6g, "
      "\"area_mm2\": %.6g, \"pe_x\": %d, \"pe_y\": %d, \"rf_size\": %d, "
      "\"dataflow\": \"%s\", \"cached\": %s, \"degraded\": %s",
      id, r.metrics.latency_ms, r.metrics.energy_mj, r.metrics.area_mm2,
      r.config.pe_x, r.config.pe_y, r.config.rf_size,
      accel::to_string(r.config.dataflow).c_str(), r.cached ? "true" : "false",
      r.degraded ? "true" : "false");
  if (r.generation != 0 && n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       ", \"generation\": %llu",
                       static_cast<unsigned long long>(r.generation));
  }
  if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf) - 1) {
    buf[n] = '}';
    buf[n + 1] = '\0';
  }
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
  return answer_with(line, space, [&service](ParsedRequest& request) {
    return service.query(Request{std::move(request.encoding)});
  });
}

}  // namespace dance::serve::wire

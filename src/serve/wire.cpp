#include "serve/wire.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string_view>
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

bool ends_element(char c) { return c == ',' || c == ']' || is_space(c); }

/// End of the JSON number starting at `p`, whose grammar is
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or null when no number
/// starts there. Only the longest match counts: "01" ends after its "0".
const char* number_end(const char* p, const char* const end) {
  const auto skip_digits = [&p, end] {
    if (p == end || !is_digit(*p)) return false;
    while (p != end && is_digit(*p)) ++p;
    return true;
  };
  if (p != end && *p == '-') ++p;
  if (p != end && *p == '0') {
    ++p;
  } else if (!skip_digits()) {
    return nullptr;
  }
  if (p != end && *p == '.' && (++p, !skip_digits())) return nullptr;
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    if (!skip_digits()) return nullptr;
  }
  return p;
}

/// The float that the JSON number [p, end) spells, rounded as strtof rounds
/// it. An integer spelling (an optional '-', at most 8 digits, then
/// optionally '.' and only zeros) below 2^24 is a float exactly, so it is
/// converted directly; "-0" stays -0.0f. Every other number goes through
/// from_chars, which reports overflow and underflow as errors; those rare
/// inputs keep strtof's answer. The line's string is NUL-terminated, and
/// strtof stops where the JSON number does.
float to_float(const char* p, const char* end) {
  const bool negative = *p == '-';
  const char* const digits = p + (negative ? 1 : 0);
  const char* q = std::find_if_not(digits, end, is_digit);
  if (q - digits <= 8) {
    std::uint32_t mantissa = 0;
    for (const char* d = digits; d != q; ++d) {
      mantissa = 10 * mantissa + static_cast<std::uint32_t>(*d - '0');
    }
    if (q != end && *q == '.') {
      q = std::find_if_not(q + 1, end, [](char c) { return c == '0'; });
    }
    if (q == end && mantissa < (1U << 24)) {
      const auto v = static_cast<float>(mantissa);
      return negative ? -v : v;
    }
  }
  float v = 0.0F;
  if (std::from_chars(p, end, v).ec != std::errc()) {
    return std::strtof(p, nullptr);
  }
  return v;
}

/// Appends `s` at `out` and returns the new end.
char* put(char* out, std::string_view s) {
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

/// Appends `v` at `out` spelled as printf's "%.6g" spells it (the
/// [charconv] spec defines chars_format::general with a precision that
/// way) and returns the new end. 16 chars hold the longest, -1.23457e-308.
char* put_metric(char* out, double v) {
  return std::to_chars(out, out + 16, v, std::chars_format::general, 6).ptr;
}

/// Appends the decimal spelling of `v` at `out` and returns the new end.
/// 20 chars hold any 64-bit integer.
template <class Int>
char* put_int(char* out, Int v) {
  return std::to_chars(out, out + 20, v).ptr;
}

enum Key { kId, kArch, kEncoding, kNumKeys };

/// One left-to-right pass over a request line. Each read_* consumes one
/// production of the grammar in wire.h and returns false at the first byte
/// that the production does not allow.
struct Cursor {
  const char* p;
  const char* end;

  void skip_space() {
    while (p != end && is_space(*p)) ++p;
  }
  /// Skips whitespace, then consumes `c` if it comes next.
  bool eat(char c) {
    skip_space();
    if (p == end || *p != c) return false;
    ++p;
    return true;
  }

  /// A quoted key, matched by its raw bytes: false when no string starts
  /// here or it never ends; `key` is kNumKeys for a name not in the set.
  bool read_key(Key& key) {
    if (!eat('"')) return false;
    const auto* close = static_cast<const char*>(
        std::memchr(p, '"', static_cast<std::size_t>(end - p)));
    if (close == nullptr) return false;
    const std::string_view name(p, static_cast<std::size_t>(close - p));
    key = name == "id"         ? kId
          : name == "arch"     ? kArch
          : name == "encoding" ? kEncoding
                               : kNumKeys;
    p = close + 1;
    return true;
  }

  /// A JSON integer in the range of a long followed by optional whitespace
  /// and ',' or '}', which stay unread.
  bool read_id(long& id) {
    skip_space();
    const char* stop = number_end(p, end);
    if (stop == nullptr) return false;
    const auto [last, ec] = std::from_chars(p, stop, id);
    // from_chars stops short of `stop` at a fraction or an exponent.
    if (last != stop || ec != std::errc()) return false;
    p = stop;
    skip_space();
    return p != end && (*p == ',' || *p == '}');
  }

  /// '[' [element (',' element)*] ']': exactly one ',' between elements,
  /// none before the first or after the last. An element is the run of
  /// characters up to the next ',', ']' or whitespace. One that is not a
  /// JSON number reads as NaN, which both keys reject element by element
  /// once the object has closed (not finite; not an op index).
  bool read_array(std::vector<float>& values) {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      skip_space();
      const char* stop = number_end(p, end);
      if (stop != nullptr && (stop == end || ends_element(*stop))) {
        values.push_back(to_float(p, stop));
      } else {
        for (stop = p; stop != end && !ends_element(*stop);) ++stop;
        if (stop == p) return false;  // empty element
        values.push_back(std::numeric_limits<float>::quiet_NaN());
      }
      p = stop;
    } while (eat(','));
    return eat(']');
  }
};

}  // namespace

bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

ParseOutcome parse_request(const std::string& line,
                           const arch::ArchSpace& space) {
  ParseOutcome out;
  const auto fail = [&out](const char* message) {
    out.error = message;
    return std::move(out);
  };
  constexpr const char* kNotOneObject = "request must be one JSON object";
  Cursor in{line.data(), line.data() + line.size()};
  bool seen[kNumKeys] = {};
  // Copied into `out` only once the object has closed, so errors found
  // before the closing brace carry id -1: the id may not have been read
  // yet, and a line's answer must not depend on the order of its members.
  long id = -1;
  std::vector<float> arrays[kNumKeys];
  if (!in.eat('{')) return fail(kNotOneObject);
  if (!in.eat('}')) {
    do {
      Key key = kNumKeys;
      if (!in.read_key(key)) return fail(kNotOneObject);
      if (key == kNumKeys) {
        return fail("unknown key: a request has only 'id', 'arch' and "
                    "'encoding'");
      }
      if (seen[key]) return fail("request names a key twice");
      seen[key] = true;
      if (!in.eat(':')) return fail(kNotOneObject);
      if (key == kId) {
        if (!in.read_id(id)) return fail("id must be an integer");
        continue;
      }
      // One allocation: no valid array is longer than an encoding.
      arrays[key].reserve(static_cast<std::size_t>(space.encoding_width()));
      if (!in.read_array(arrays[key])) {
        return fail("request needs an 'encoding' or 'arch' array");
      }
    } while (in.eat(','));
    if (!in.eat('}')) return fail(kNotOneObject);
  }
  in.skip_space();
  if (in.p != in.end) return fail(kNotOneObject);

  out.request.id = id;
  // A line naming both keys is ambiguous: neither one silently wins.
  if (seen[kArch] && seen[kEncoding]) {
    return fail("request must have an 'encoding' or an 'arch', not both");
  }
  if (seen[kEncoding]) {
    // An encoding names one architecture: every value is 0 or 1 (-0 reads
    // as 0) with exactly one 1 in each kNumCandidateOps-wide slot. Any other
    // vector, soft or all-zero, would be argmax-decoded into an answer for
    // an architecture the caller never sent. A non-finite value and a wrong
    // width keep their own messages, checked first.
    const std::vector<float>& enc = arrays[kEncoding];
    bool one_hot = true;
    int ones = 0;
    for (std::size_t i = 0; i < enc.size(); ++i) {
      if (!std::isfinite(enc[i])) {
        return fail("encoding values must be finite");
      }
      if (enc[i] == 1.0F) {
        ++ones;
      } else if (enc[i] != 0.0F) {
        one_hot = false;
      }
      if ((i + 1) % arch::kNumCandidateOps == 0) {
        one_hot = one_hot && ones == 1;
        ones = 0;
      }
    }
    if (static_cast<int>(enc.size()) != space.encoding_width()) {
      return fail("encoding has the wrong width");
    }
    if (!one_hot) {
      return fail("encoding must be one-hot: each value 0 or 1, one 1 per "
                  "slot");
    }
    out.request.encoding = std::move(arrays[kEncoding]);
  } else if (seen[kArch]) {
    if (static_cast<int>(arrays[kArch].size()) != space.num_searchable()) {
      return fail("arch must list one op index per searchable slot");
    }
    arch::Architecture a;
    for (const float v : arrays[kArch]) {
      // Range-check the float before the cast: casting NaN or an
      // out-of-range value to int is undefined behaviour.
      if (!(v >= 0.0F && v < static_cast<float>(arch::kNumCandidateOps)) ||
          v != std::floor(v)) {
        return fail("arch entries must be integer op indices in [0, 6]");
      }
      const int op = static_cast<int>(v);
      a.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(op)]);
    }
    out.request.encoding = space.encode(a);
  } else {
    return fail("request needs an 'encoding' or 'arch' array");
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
  // The fixed text takes 138 bytes, each metric at most 16, each integer at
  // most 20 and the dataflow 2: 268 in all.
  char buf[320];
  char* p = put(buf, "{\"id\": ");
  p = put_int(p, id);
  p = put(p, ", \"latency_ms\": ");
  p = put_metric(p, r.metrics.latency_ms);
  p = put(p, ", \"energy_mj\": ");
  p = put_metric(p, r.metrics.energy_mj);
  p = put(p, ", \"area_mm2\": ");
  p = put_metric(p, r.metrics.area_mm2);
  p = put(p, ", \"pe_x\": ");
  p = put_int(p, r.config.pe_x);
  p = put(p, ", \"pe_y\": ");
  p = put_int(p, r.config.pe_y);
  p = put(p, ", \"rf_size\": ");
  p = put_int(p, r.config.rf_size);
  p = put(p, ", \"dataflow\": \"");
  p = put(p, accel::to_string(r.config.dataflow));
  p = put(p, r.cached ? "\", \"cached\": true, \"degraded\": false}"
                      : "\", \"cached\": false, \"degraded\": false}");
  return std::string(buf, p);
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

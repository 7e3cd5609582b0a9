#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "accel/accelerator.h"
#include "accel/cost_model.h"
#include "arch/space.h"

namespace dance::serve {

/// One cost query: a canonical architecture encoding (the evaluator's input
/// format — num_searchable * kNumCandidateOps floats, one distribution per
/// slot). The wire accepts only one-hot encodings; an in-process caller may
/// pass a soft one, which the exact backend argmax-decodes
/// (ArchSpace::decode semantics).
struct Request {
  Request() = default;
  explicit Request(std::vector<float> enc) : encoding(std::move(enc)) {}

  std::vector<float> encoding;

  /// Opaque caller context. The Service passes it unread, past the cache,
  /// into `CostQueryBackend::query_batch`, so a decorating backend can find
  /// per-request state there (a timing wrapper keeps its span ids in it).
  /// It is no part of the cache key. Null unless the caller sets it.
  std::shared_ptr<const void> pin;

  /// Canonical encoding of a concrete architecture.
  [[nodiscard]] static Request from_architecture(const arch::ArchSpace& space,
                                                 const arch::Architecture& a) {
    return Request{space.encode(a)};
  }
};

/// The answer: predicted (or exact) network metrics plus the hardware
/// configuration chosen for the query. `cached` is stamped by the Service so
/// clients and the JSON front-end can see which answers were memoized.
struct Response {
  accel::CostMetrics metrics;
  accel::AcceleratorConfig config;
  bool cached = false;
};

/// Cache-key canonicalization: float values that compare equal but differ
/// in bits must share one cache entry. The only such value a well-formed
/// encoding can carry is -0.0f (e.g. produced by upstream arithmetic), which
/// is flushed to +0.0f. NaNs are left untouched. KeyHash and KeyEq apply the
/// same rule word by word, so a lookup needs no canonical copy; the Service
/// calls this only to store a missed key.
inline std::vector<float> canonical_key(const std::vector<float>& encoding) {
  std::vector<float> key = encoding;
  for (float& v : key) {
    if (v == 0.0F) v = 0.0F;  // -0.0f -> +0.0f; +0.0f unchanged
  }
  return key;
}

/// The bits a key value hashes and compares by: -0.0f reads as +0.0f, and
/// every other value, NaN payloads included, as its own bits.
inline std::uint32_t key_word(float v) {
  std::uint32_t w = 0;
  std::memcpy(&w, &v, sizeof(w));
  return w == 0x80000000U ? 0U : w;
}

/// Hash of a key by 4-byte words (key_word, so -0.0f hashes as +0.0f):
/// FNV-1a's xor-multiply step per word, then the murmur3 64-bit finalizer.
/// The finalizer spreads every word into every output bit, including the
/// low bits the hash table's bucket index reads; one-hot keys hold only the
/// words of 0.0f and 1.0f, whose low bits are all zero. Used by the cache's
/// hash map and by `query_many`'s within-call dedup.
struct KeyHash {
  std::size_t operator()(const std::vector<float>& key) const {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ key.size();
    for (const float v : key) h = (h ^ key_word(v)) * 0x100000001b3ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Word-wise equality under key_word: -0.0f equals +0.0f, and NaNs are
/// compared by their bits (two requests with the same NaN bits do hit the
/// same entry, which is still deterministic).
struct KeyEq {
  bool operator()(const std::vector<float>& a,
                  const std::vector<float>& b) const {
    if (a.size() != b.size()) return false;
    std::uint32_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      diff |= key_word(a[i]) ^ key_word(b[i]);
    }
    return diff == 0;
  }
};

}  // namespace dance::serve

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

/// Cache-key canonicalization: the memoization cache keys on the *bytes* of
/// the encoding, so float values that compare equal but differ in bits must
/// be collapsed first. The only such value a well-formed encoding can carry
/// is -0.0f (e.g. produced by upstream arithmetic), which is flushed to
/// +0.0f. NaNs are left untouched: a NaN-carrying encoding never equals
/// anything, including itself, which is the safe behavior for a poisoned
/// query (it simply never hits the cache).
inline std::vector<float> canonical_key(const std::vector<float>& encoding) {
  std::vector<float> key = encoding;
  for (float& v : key) {
    if (v == 0.0F) v = 0.0F;  // -0.0f -> +0.0f; +0.0f unchanged
  }
  return key;
}

/// FNV-1a over the key bytes. Used by the cache's hash map and by
/// `query_many`'s within-call dedup; byte-hashing is exact because keys are
/// canonicalized. Its low three bits are the same for every one-hot key
/// (0.0f bytes leave them alone), so `hash % 8` cannot spread such keys over
/// eight stripes.
struct KeyHash {
  std::size_t operator()(const std::vector<float>& key) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto* bytes = reinterpret_cast<const unsigned char*>(key.data());
    for (std::size_t i = 0; i < key.size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Bytewise equality (exact, including NaN payloads — two requests with the
/// same NaN bits do hit the same entry, which is still deterministic).
struct KeyEq {
  bool operator()(const std::vector<float>& a,
                  const std::vector<float>& b) const {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
  }
};

}  // namespace dance::serve

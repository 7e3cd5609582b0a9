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
/// slot). Soft distributions are legal inputs for the surrogate backend;
/// the exact backend argmax-decodes them (ArchSpace::decode semantics).
struct Request {
  Request() = default;
  explicit Request(std::vector<float> enc) : encoding(std::move(enc)) {}

  std::vector<float> encoding;

  /// Cache-namespace scope. Both zero (the default) means the legacy
  /// unscoped namespace — the canonical key is exactly the encoding bytes,
  /// so pre-registry snapshots and single-model deployments are unchanged.
  /// The registry layer sets (model-name hash, generation) before querying,
  /// which folds into the canonical key and makes a stale cross-generation
  /// cache hit impossible by construction: keys from different generations
  /// differ in their scope bytes. Old-namespace entries age out of the LRU
  /// lazily.
  std::uint64_t scope_model = 0;
  std::uint64_t scope_generation = 0;

  /// Opaque lifetime pin. The registry stores the pinned
  /// `shared_ptr<const ModelVersion>` here so the generation (evaluator +
  /// compiled plan) stays alive for this request's whole lifetime, across
  /// the batcher and into `query_batch`, even if `publish()` swaps the live
  /// pointer mid-flight. Unused (null) outside registry serving.
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
  /// Registry generation that answered (0 = non-registry serving). Stamped
  /// by the registry serving layer from the request's pinned version, so it
  /// is authoritative even for cache hits and snapshot-restored entries.
  std::uint64_t generation = 0;
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

/// Scoped canonicalization. An unscoped request ({0, 0}) produces exactly
/// the legacy key — bit-compatible with existing snapshots and the cluster
/// wire path. A scoped request prepends 4 floats carrying the raw bytes of
/// (scope_model, scope_generation). The scope floats are memcpy'd, NOT run
/// through the -0.0 flush: a scope half whose bit pattern happens to be
/// 0x80000000 must stay distinct from 0x00000000, and NaN-patterned scope
/// bytes still compare byte-wise equal under KeyEq (unlike encoding NaNs,
/// which is exactly what a namespace tag needs).
inline std::vector<float> canonical_key(const Request& request) {
  if (request.scope_model == 0 && request.scope_generation == 0) {
    return canonical_key(request.encoding);
  }
  std::vector<float> key(4 + request.encoding.size());
  static_assert(sizeof(std::uint64_t) == 2 * sizeof(float));
  std::memcpy(key.data(), &request.scope_model, sizeof(std::uint64_t));
  std::memcpy(key.data() + 2, &request.scope_generation,
              sizeof(std::uint64_t));
  for (std::size_t i = 0; i < request.encoding.size(); ++i) {
    const float v = request.encoding[i];
    key[4 + i] = (v == 0.0F) ? 0.0F : v;
  }
  return key;
}

/// FNV-1a over the key bytes. Used by the cache's hash map, by
/// `query_many`'s within-call dedup and by the cluster's hash ring;
/// byte-hashing is exact because keys are canonicalized. Its low three bits
/// are the same for every one-hot key (0.0f bytes leave them alone), so
/// `hash % 8` cannot spread such keys over eight stripes.
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

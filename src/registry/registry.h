#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "evalnet/evaluator.h"
#include "hwgen/search_space.h"
#include "registry/manifest.h"
#include "serve/backend.h"
#include "serve/types.h"

namespace dance::registry {

/// One resident (model, generation): the evaluator reconstructed from its
/// checkpoints plus its own SurrogateBackend — i.e. its own compiled
/// infer::Plan (recompiled per generation at construction). Versions are
/// held and handed out as `shared_ptr<const ModelVersion>`: a query pins one version for its whole
/// lifetime, so `publish()` can swap the live pointer while in-flight
/// queries keep answering — and keep their Plan alive — on the generation
/// they started on. The last pin to drop frees the version (RCU by
/// shared_ptr).
class ModelVersion {
 public:
  ModelVersion(std::string model, std::uint64_t generation,
               std::uint64_t model_hash,
               std::unique_ptr<evalnet::Evaluator> evaluator);
  ~ModelVersion();

  [[nodiscard]] const std::string& model() const { return model_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t model_hash() const { return model_hash_; }

  /// Answers a batch on this generation, with `generation` stamped into
  /// every response. Thread-safe: the backend's scratch arena is
  /// single-threaded, so calls are serialized per version — the live
  /// batcher and the shadow worker can share one candidate safely.
  [[nodiscard]] std::vector<serve::Response> answer(
      std::span<const serve::Request> requests) const;

  /// Number of ModelVersion objects currently alive in the process (live +
  /// candidates + retired-but-pinned). Mirrored to the
  /// `registry.pinned_generations` gauge on every construction/destruction.
  [[nodiscard]] static std::uint64_t resident_count();

 private:
  std::string model_;
  std::uint64_t generation_;
  std::uint64_t model_hash_;
  std::unique_ptr<evalnet::Evaluator> evaluator_;
  mutable std::mutex mu_;  ///< serializes backend_ (mutable arena)
  mutable std::unique_ptr<serve::SurrogateBackend> backend_;
};

using VersionPtr = std::shared_ptr<const ModelVersion>;

/// The versioned, multi-tenant checkpoint registry: a directory of
/// checkpoint files plus a MANIFEST mapping model name -> generations ->
/// files (docs/registry.md). The registry keeps the live (and, when
/// staged, candidate) generation of every model resident, hands out pins,
/// and hot-swaps on publish/promote/reload without dropping in-flight
/// queries.
///
/// Multi-process: shards share one registry directory read-only and pick
/// up externally published generations via `reload()` (wire `{"cmd":
/// "reload"}` or SIGHUP). Writers (`init`/`publish`/`promote`) assume a
/// single publisher at a time; MANIFEST and checkpoint writes are atomic,
/// so readers never observe torn state.
class ModelRegistry {
 public:
  /// Opens `dir`, parses the MANIFEST in full, and loads the live and
  /// candidate generations of every model. Throws ManifestError /
  /// std::runtime_error on any inconsistency — a registry either opens
  /// completely or not at all.
  ModelRegistry(std::string dir, const hwgen::HwSearchSpace& hw_space);

  /// Creates an empty registry directory manifest (admin bootstrap).
  static void init(const std::string& dir);

  /// Pins the live generation of `model`. The returned version stays fully
  /// usable until the pin is dropped, regardless of later publishes.
  /// Throws std::runtime_error for unknown models or models with no live
  /// generation.
  [[nodiscard]] VersionPtr pin(const std::string& model) const;

  /// Pins the staged candidate, or nullptr when none is staged.
  [[nodiscard]] VersionPtr pin_candidate(const std::string& model) const;

  /// Builds a scoped, pinned request for `version`: the (model hash,
  /// generation) namespace is folded into the cache key and the version is
  /// kept alive for the request's lifetime.
  [[nodiscard]] static serve::Request make_request(
      const VersionPtr& version, std::vector<float> encoding);

  /// Publishes `evaluator` as the next generation of `model` (creating the
  /// model entry on first publish): checkpoints are written atomically, the
  /// MANIFEST is rewritten atomically, and a fresh resident version is
  /// loaded back from the files just written (round-trip validated) and
  /// swapped in — as the live generation, or staged as the candidate when
  /// `as_candidate` is set. Returns the new generation number.
  std::uint64_t publish(const std::string& model,
                        evalnet::Evaluator& evaluator,
                        bool as_candidate = false);

  /// Promotes the staged candidate to live (shadow validation passed).
  /// Returns the promoted generation, or 0 when no candidate is staged.
  std::uint64_t promote(const std::string& model);

  /// Re-reads the MANIFEST and swaps in any generation published by
  /// another process. Returns the number of versions swapped/loaded.
  std::size_t reload();

  [[nodiscard]] std::vector<std::string> models() const;
  [[nodiscard]] std::uint64_t live_generation(const std::string& model) const;
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const hwgen::HwSearchSpace& hw_space() const {
    return hw_space_;
  }

  /// Reconstructs an Evaluator from a generation's checkpoints (training
  /// state: default). Used internally for residency and by the
  /// recalibration driver as the fine-tuning starting point.
  [[nodiscard]] std::unique_ptr<evalnet::Evaluator> load_evaluator(
      const std::string& model, std::uint64_t generation) const;

 private:
  struct Entry {
    VersionPtr live;
    VersionPtr candidate;
  };

  /// Lock-free builders over an explicit ManifestModel snapshot (callers
  /// either hold no lock and own the snapshot, or run before the entry is
  /// visible).
  [[nodiscard]] std::unique_ptr<evalnet::Evaluator> build_evaluator(
      const ManifestModel& m, std::uint64_t generation) const;
  [[nodiscard]] VersionPtr load_version(const ManifestModel& m,
                                        std::uint64_t generation) const;

  std::string dir_;
  const hwgen::HwSearchSpace& hw_space_;
  mutable std::mutex mu_;  ///< guards manifest_ + entries_
  Manifest manifest_;
  std::map<std::string, Entry> entries_;
};

/// Registry-aware serve backend: routes every request to the generation it
/// is pinned to. A batch coalesced by the MicroBatcher may span pins (two
/// queries that straddled a publish, or different models entirely); the
/// batch is grouped by version and each group answered on its own
/// generation, so responses are never cross-generation blends. Requests
/// without a pin are rejected (std::runtime_error -> wire error line).
class RegistryBackend : public serve::CostQueryBackend {
 public:
  [[nodiscard]] std::vector<serve::Response> query_batch(
      std::span<const serve::Request> requests) override;
  [[nodiscard]] const char* name() const override { return "registry"; }
};

/// FNV-1a of the model name (the cache-namespace model hash).
[[nodiscard]] std::uint64_t model_name_hash(const std::string& name);

}  // namespace dance::registry

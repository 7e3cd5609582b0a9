#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "arch/cost_provider.h"

namespace dance::arch {

/// Typed diagnostic for a cost-table artifact that failed to save, load or
/// verify. Carries where in the file the parse gave up and — for checksum
/// failures — both sides of the mismatch, so callers can print an
/// actionable message instead of a bare "bad file".
class ArtifactError : public std::runtime_error {
 public:
  ArtifactError(const std::string& message, std::string path,
                std::size_t offset = 0, std::uint64_t expected_checksum = 0,
                std::uint64_t actual_checksum = 0);

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Byte offset at which validation failed (0 when not applicable).
  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::uint64_t expected_checksum() const { return expected_; }
  [[nodiscard]] std::uint64_t actual_checksum() const { return actual_; }

 private:
  std::string path_;
  std::size_t offset_ = 0;
  std::uint64_t expected_ = 0;
  std::uint64_t actual_ = 0;
};

/// Compiles a provider's full (slot, op, config) table into a DCTB-v2 file
/// (see docs/cost_table.md for the byte layout): fixed 72-byte header
/// carrying the table dimensions, the HwSearchSpace::Options needed to
/// reconstruct H, the ArchSpace encoding width, the clock and the length of
/// the kept prefix, followed by the five flat f64 arrays in scan order, the
/// scan order itself and a trailing FNV-1a checksum over everything before
/// it. Written via util::atomic_write_file (tmp + rename), so a
/// crash mid-save never leaves a torn file. Returns the checksum.
std::uint64_t save_cost_table(const TableCostProvider& table,
                              const std::string& path);

/// A compiled cost table mapped read-only from disk. The file is verified
/// checksum-first and parsed fully before the first query (DSNP
/// discipline); any defect — truncation, bit flips anywhere, a table built
/// for a different architecture space, a scan order other than the one the
/// mapped rows yield — throws ArtifactError from the constructor and
/// nothing is ever served from a bad mapping. Pages are
/// MAP_SHARED, so N processes mapping one artifact share one physical copy
/// and pay zero per-process build time.
class MmapCostTable : public TableCostProvider {
 public:
  /// `arch_space` is the caller's network space (the backbone is not
  /// serialized); the artifact's slot count and encoding width must match.
  MmapCostTable(std::string path, const ArchSpace& arch_space);
  ~MmapCostTable() override;

  MmapCostTable(const MmapCostTable&) = delete;
  MmapCostTable& operator=(const MmapCostTable&) = delete;

  [[nodiscard]] const hwgen::HwSearchSpace& hw_space() const override {
    return hw_space_;
  }
  [[nodiscard]] const ArchSpace& arch_space() const override {
    return arch_space_;
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  [[nodiscard]] std::size_t mapped_bytes() const { return map_.len; }

 private:
  struct Mapping {
    void* addr = nullptr;
    std::size_t len = 0;
    ~Mapping();
  };

  std::string path_;
  const ArchSpace& arch_space_;
  hwgen::HwSearchSpace hw_space_;
  Mapping map_;
  std::uint64_t checksum_ = 0;
};

/// Factory form of the MmapCostTable constructor, symmetric with
/// arch::build_cost_table. Throws ArtifactError on any defect.
[[nodiscard]] std::unique_ptr<MmapCostTable> load_cost_table(
    const std::string& path, const ArchSpace& arch_space);

}  // namespace dance::arch

#pragma once

#include <cstddef>
#include <vector>

#include "accel/accelerator.h"

namespace dance::hwgen {

/// The hardware design space H of §4.1: PE_X, PE_Y in [8, 24],
/// RF size in {4, 8, ..., 64} and three dataflows, enumerated with a flat
/// index so exhaustive tools and one-hot encoders agree on ordering.
class HwSearchSpace {
 public:
  struct Options {
    int pe_min = 8;
    int pe_max = 24;
    int rf_min = 4;
    int rf_max = 64;
    int rf_step = 4;
  };

  HwSearchSpace();  ///< paper defaults (§4.1)
  explicit HwSearchSpace(const Options& opts);

  /// The 300-config space behind every example's --small flag: PE_X, PE_Y
  /// in [8, 12], RF size in {8, 16, 24, 32}.
  [[nodiscard]] static HwSearchSpace small();

  [[nodiscard]] int num_pe_choices() const { return pe_count_; }
  [[nodiscard]] int num_rf_choices() const { return rf_count_; }
  [[nodiscard]] int num_dataflow_choices() const { return 3; }

  /// Total number of configurations.
  [[nodiscard]] std::size_t size() const;

  /// Flat-index <-> configuration mapping.
  [[nodiscard]] accel::AcceleratorConfig config_at(std::size_t index) const;
  [[nodiscard]] std::size_t index_of(const accel::AcceleratorConfig& c) const;

  /// Per-dimension choice indices (for classifier heads / one-hot encoding).
  [[nodiscard]] int pe_index(int pe) const;
  [[nodiscard]] int rf_index(int rf) const;
  [[nodiscard]] int dataflow_index(accel::Dataflow df) const;
  [[nodiscard]] int pe_value(int index) const;
  [[nodiscard]] int rf_value(int index) const;
  [[nodiscard]] accel::Dataflow dataflow_value(int index) const;

  /// Width of the concatenated one-hot encoding of a configuration
  /// (PEX + PEY + RF + Dataflow classes).
  [[nodiscard]] int encoding_width() const {
    return 2 * pe_count_ + rf_count_ + 3;
  }

  /// Concatenated one-hot encoding of a configuration.
  [[nodiscard]] std::vector<float> encode(const accel::AcceleratorConfig& c) const;

  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  Options opts_;
  int pe_count_;
  int rf_count_;
};

}  // namespace dance::hwgen

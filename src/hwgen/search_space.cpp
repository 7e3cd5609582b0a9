#include "hwgen/search_space.h"

#include <stdexcept>

namespace dance::hwgen {

HwSearchSpace::HwSearchSpace() : HwSearchSpace(Options{}) {}

HwSearchSpace HwSearchSpace::small() {
  return HwSearchSpace(
      {.pe_min = 8, .pe_max = 12, .rf_min = 8, .rf_max = 32, .rf_step = 8});
}

HwSearchSpace::HwSearchSpace(const Options& opts) : opts_(opts) {
  if (opts.pe_min <= 0 || opts.pe_max < opts.pe_min) {
    throw std::invalid_argument("HwSearchSpace: bad PE range");
  }
  if (opts.rf_min <= 0 || opts.rf_max < opts.rf_min || opts.rf_step <= 0) {
    throw std::invalid_argument("HwSearchSpace: bad RF range");
  }
  pe_count_ = opts.pe_max - opts.pe_min + 1;
  rf_count_ = (opts.rf_max - opts.rf_min) / opts.rf_step + 1;
}

std::size_t HwSearchSpace::size() const {
  return static_cast<std::size_t>(pe_count_) * pe_count_ * rf_count_ * 3;
}

accel::AcceleratorConfig HwSearchSpace::config_at(std::size_t index) const {
  if (index >= size()) throw std::out_of_range("HwSearchSpace::config_at");
  const int df = static_cast<int>(index % 3);
  index /= 3;
  const int rf = static_cast<int>(index % static_cast<std::size_t>(rf_count_));
  index /= static_cast<std::size_t>(rf_count_);
  const int py = static_cast<int>(index % static_cast<std::size_t>(pe_count_));
  index /= static_cast<std::size_t>(pe_count_);
  const int px = static_cast<int>(index);
  return accel::AcceleratorConfig{pe_value(px), pe_value(py), rf_value(rf),
                                  dataflow_value(df)};
}

std::size_t HwSearchSpace::index_of(const accel::AcceleratorConfig& c) const {
  const std::size_t px = static_cast<std::size_t>(pe_index(c.pe_x));
  const std::size_t py = static_cast<std::size_t>(pe_index(c.pe_y));
  const std::size_t rf = static_cast<std::size_t>(rf_index(c.rf_size));
  const std::size_t df = static_cast<std::size_t>(dataflow_index(c.dataflow));
  return ((px * static_cast<std::size_t>(pe_count_) + py) *
              static_cast<std::size_t>(rf_count_) +
          rf) *
             3 +
         df;
}

int HwSearchSpace::pe_index(int pe) const {
  if (pe < opts_.pe_min || pe > opts_.pe_max) {
    throw std::out_of_range("HwSearchSpace::pe_index: " + std::to_string(pe));
  }
  return pe - opts_.pe_min;
}

int HwSearchSpace::rf_index(int rf) const {
  if (rf < opts_.rf_min || rf > opts_.rf_max ||
      (rf - opts_.rf_min) % opts_.rf_step != 0) {
    throw std::out_of_range("HwSearchSpace::rf_index: " + std::to_string(rf));
  }
  return (rf - opts_.rf_min) / opts_.rf_step;
}

int HwSearchSpace::dataflow_index(accel::Dataflow df) const {
  switch (df) {
    case accel::Dataflow::kWeightStationary: return 0;
    case accel::Dataflow::kOutputStationary: return 1;
    case accel::Dataflow::kRowStationary: return 2;
  }
  throw std::out_of_range("HwSearchSpace::dataflow_index");
}

int HwSearchSpace::pe_value(int index) const {
  if (index < 0 || index >= pe_count_) throw std::out_of_range("pe_value");
  return opts_.pe_min + index;
}

int HwSearchSpace::rf_value(int index) const {
  if (index < 0 || index >= rf_count_) throw std::out_of_range("rf_value");
  return opts_.rf_min + index * opts_.rf_step;
}

accel::Dataflow HwSearchSpace::dataflow_value(int index) const {
  switch (index) {
    case 0: return accel::Dataflow::kWeightStationary;
    case 1: return accel::Dataflow::kOutputStationary;
    case 2: return accel::Dataflow::kRowStationary;
    default: throw std::out_of_range("dataflow_value");
  }
}

std::vector<float> HwSearchSpace::encode(const accel::AcceleratorConfig& c) const {
  std::vector<float> v(static_cast<std::size_t>(encoding_width()), 0.0F);
  int off = 0;
  v[static_cast<std::size_t>(off + pe_index(c.pe_x))] = 1.0F;
  off += pe_count_;
  v[static_cast<std::size_t>(off + pe_index(c.pe_y))] = 1.0F;
  off += pe_count_;
  v[static_cast<std::size_t>(off + rf_index(c.rf_size))] = 1.0F;
  off += rf_count_;
  v[static_cast<std::size_t>(off + dataflow_index(c.dataflow))] = 1.0F;
  return v;
}

}  // namespace dance::hwgen

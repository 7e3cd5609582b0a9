#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dance::tensor {

/// Dense row-major float tensor. The library only needs rank-1 and rank-2
/// tensors (vectors and [batch, features] matrices), so the shape is kept as
/// a small vector and all hot loops are written against raw contiguous data.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  static Tensor full(std::vector<int> shape, float value);
  /// i.i.d. N(mean, stddev) entries.
  static Tensor randn(std::vector<int> shape, util::Rng& rng, float mean = 0.0F,
                      float stddev = 1.0F);
  /// Row-major values with an explicit shape.
  static Tensor from(std::vector<int> shape, std::vector<float> values);

  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] int dim(int i) const { return shape_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int rank() const { return static_cast<int>(shape_.size()); }

  // rows(), cols() and at() are rank-2 only. They are defined here so that
  // the per-element loops in ops.cpp inline them.
  [[nodiscard]] int rows() const {
    if (rank() != 2) rank_error("Tensor::rows: rank != 2");
    return shape_[0];
  }
  [[nodiscard]] int cols() const {
    if (rank() != 2) rank_error("Tensor::cols: rank != 2");
    return shape_[1];
  }

  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  float& at(int r, int c) { return data_[offset(r, c)]; }
  [[nodiscard]] float at(int r, int c) const { return data_[offset(r, c)]; }

  void fill(float value);
  /// this += other (same shape).
  void add_(const Tensor& other);
  /// this *= s.
  void scale_(float s);

  [[nodiscard]] bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

  [[nodiscard]] std::string shape_str() const;

 private:
  /// Throws std::logic_error(what); out of line so the inline accessors
  /// carry only a compare and a cold call.
  [[noreturn]] static void rank_error(const char* what);

  [[nodiscard]] std::size_t offset(int r, int c) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols()) +
           static_cast<std::size_t>(c);
  }

  std::vector<int> shape_;
  std::vector<float> data_;
};

}  // namespace dance::tensor

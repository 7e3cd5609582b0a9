#include "tensor/tensor.h"

#include <numeric>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace dance::tensor {

namespace {

#if defined(__GLIBC__)
// Keep freed heap instead of returning it to the kernel (docs/runtime.md,
// "Autograd tape"). An architecture step frees about 9 MB of 24-32 KB
// tensors; with glibc's default 128 KiB trim threshold that memory goes
// back to the kernel at the end of each step, and the next step faults it
// in again, page by page. Set once, when this library's statics initialise.
[[maybe_unused]] const int kKeepHeap = mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d < 0) throw std::invalid_argument("Tensor: negative dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0F) {}

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, util::Rng& rng, float mean,
                     float stddev) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::from(std::vector<int> shape, std::vector<float> values) {
  if (shape_numel(shape) != values.size()) {
    throw std::invalid_argument("Tensor::from: shape/value size mismatch");
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  return t;
}

void Tensor::rank_error(const char* what) { throw std::logic_error(what); }

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_(const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("Tensor::add_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::scale_(float s) {
  for (float& x : data_) x *= s;
}

std::string Tensor::shape_str() const {
  std::string s = "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape_[i]);
  }
  return s + "]";
}

}  // namespace dance::tensor

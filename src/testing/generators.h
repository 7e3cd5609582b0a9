#pragma once

#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "accel/conv_shape.h"
#include "tensor/tensor.h"
#include "testing/property.h"

namespace dance::testing {

// Seeded generators (with shrinkers and printers) for the domain objects the
// DANCE test suites fuzz over. All of them draw exclusively from the passed
// Rng, so a trial seed fully determines the generated value.

/// Randomized valid convolution layer, biased toward the kinds of layers the
/// MBConv backbone produces: pointwise (1x1), depthwise (groups == c) and
/// dense square convolutions, strides 1/2, small batches. Shrinks toward the
/// 1x1x1 unit layer while keeping `ConvShape::valid()` true.
[[nodiscard]] Generator<accel::ConvShape> conv_shape_gen();

/// Accelerator configuration from the paper's design space ranges
/// (PE in [8,24], RF in {4..64}, all three dataflows). Shrinks toward the
/// minimal 8x8/RF4 corner; the dataflow is preserved so a dataflow-specific
/// failure stays in its dataflow while shrinking.
[[nodiscard]] Generator<accel::AcceleratorConfig> accel_config_gen();

/// Random tensor *list* for checkpoint round-trips: up to `max_tensors`
/// tensors of rank 1 or 2, entries including the IEEE edge cases a byte-exact
/// round trip must preserve (±0, ±inf, NaN, denormals).
[[nodiscard]] Generator<std::vector<tensor::Tensor>> tensor_list_gen(
    int max_tensors = 6, int max_dim = 16);

/// Architecture encoding for evaluator inputs: [1, num_blocks * num_ops],
/// each block a distribution over ops — one-hot, softmax-soft, or mixed.
/// Shrinks toward the all-first-op one-hot encoding.
[[nodiscard]] Generator<tensor::Tensor> arch_encoding_gen(int num_blocks,
                                                          int num_ops);

/// Randomized `parallel_for` workload for the pool bit-identity fuzz:
/// range length, grain, lane count and which arithmetic body to run.
struct PoolWorkload {
  long n = 0;
  long grain = 1;
  int threads = 1;
  int body = 0;  ///< index into the fuzz harness's body table

  [[nodiscard]] std::string to_string() const;
};
[[nodiscard]] Generator<PoolWorkload> pool_workload_gen(int num_bodies);

/// Render helpers shared by the suites.
[[nodiscard]] std::string show_tensor(const tensor::Tensor& t);

}  // namespace dance::testing

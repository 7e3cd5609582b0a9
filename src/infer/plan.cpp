#include "infer/plan.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "evalnet/evaluator.h"
#include "obs/registry.h"
#include "runtime/profiler.h"
#include "tensor/gemm.h"
#include "util/parallel.h"

namespace dance::infer {

namespace gemm = tensor::gemm;

// ---------------------------------------------------------------------------
// Arena

void Arena::prepare(const Plan& plan, int rows) {
  if (rows <= 0) throw std::invalid_argument("Arena::prepare: rows <= 0");
  if (rows <= rows_) return;
  const auto r = static_cast<std::size_t>(rows);
  f32_.resize(r * plan.floats_per_row());
  rows_ = rows;
}

float* Arena::stage_input(int rows, int width) {
  const std::size_t need =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(width);
  if (input_.size() < need) input_.resize(need);
  return input_.data();
}

// ---------------------------------------------------------------------------
// Compilation

Plan::Trunk Plan::compile_trunk(const nn::FrozenMlp& mlp) {
  if (mlp.layers.size() < 2) {
    throw std::invalid_argument("Plan: frozen trunk needs >= 2 layers");
  }
  Trunk trunk;
  trunk.in_dim = mlp.in_dim;
  trunk.hidden_dim = mlp.hidden_dim;
  trunk.out_dim = mlp.out_dim;
  trunk.steps.reserve(mlp.layers.size());
  for (const auto& layer : mlp.layers) {
    Step step;
    step.in = layer.linear.in;
    step.out = layer.linear.out;
    if (layer.linear.weight.rank() != 2 ||
        layer.linear.weight.rows() != step.in ||
        layer.linear.weight.cols() != step.out) {
      throw std::invalid_argument("Plan: frozen weight shape mismatch");
    }
    step.weight = layer.linear.weight;
    step.bias = layer.linear.bias;
    if (step.bias.numel() != 0 &&
        step.bias.numel() != static_cast<std::size_t>(step.out)) {
      throw std::invalid_argument("Plan: frozen bias shape mismatch");
    }
    step.b_finite = gemm::all_finite(step.weight.data(), step.weight.numel());
    if (layer.has_norm) {
      const auto width = static_cast<std::size_t>(step.out);
      if (layer.norm.gamma.numel() != width ||
          layer.norm.inv_std.numel() != width) {
        throw std::invalid_argument("Plan: frozen norm shape mismatch");
      }
      step.gamma = layer.norm.gamma;
      step.beta = layer.norm.beta;
      step.mean = layer.norm.mean;
      step.inv_std = layer.norm.inv_std;
      step.has_norm = true;
    }
    step.relu = layer.relu;
    step.residual = layer.residual;
    trunk.steps.push_back(std::move(step));
  }
  return trunk;
}

Plan Plan::compile(const evalnet::FrozenEvaluator& frozen) {
  Plan plan;
  plan.hwgen_ = compile_trunk(frozen.hwgen_trunk);
  plan.cost_ = compile_trunk(frozen.cost_trunk);
  plan.head_ranges_ = frozen.head_ranges;
  plan.output_scale_ = frozen.output_scale;
  plan.feature_forwarding_ = frozen.feature_forwarding;
  plan.arch_width_ = frozen.arch_width;
  plan.hw_width_ = frozen.hw_width;

  if (plan.hwgen_.in_dim != plan.arch_width_ ||
      plan.hwgen_.out_dim != plan.hw_width_) {
    throw std::invalid_argument("Plan: hwgen trunk width mismatch");
  }
  // Heads must tile [0, hw_width) in order: the one-hot encoding is the
  // concat of per-head argmaxes, exactly as forward_encoded_deterministic
  // concatenates its hard_max_st slices.
  int cursor = 0;
  for (const auto& [begin, end] : plan.head_ranges_) {
    if (begin != cursor || end <= begin) {
      throw std::invalid_argument("Plan: head ranges must tile the encoding");
    }
    cursor = end;
  }
  if (cursor != plan.hw_width_) {
    throw std::invalid_argument("Plan: head ranges must cover the encoding");
  }
  plan.cost_in_width_ =
      plan.feature_forwarding_ ? plan.arch_width_ + plan.hw_width_
                               : plan.arch_width_;
  if (plan.cost_.in_dim != plan.cost_in_width_ || plan.cost_.out_dim != 3) {
    throw std::invalid_argument("Plan: cost trunk width mismatch");
  }
  obs::Registry::global().counter("infer.plan.compiles").inc();
  return plan;
}

Plan Plan::compile(evalnet::Evaluator& evaluator) {
  const evalnet::FrozenEvaluator frozen = evaluator.freeze();
  return compile(frozen);
}

std::size_t Plan::num_steps() const {
  return hwgen_.steps.size() + cost_.steps.size();
}

std::size_t Plan::floats_per_row() const {
  // hwgen h + z, logits, (optional) cost concat input, cost h + z. Metrics
  // land directly in the caller's output buffer.
  std::size_t per_row = 2 * static_cast<std::size_t>(hwgen_.hidden_dim) +
                        static_cast<std::size_t>(hw_width_) +
                        2 * static_cast<std::size_t>(cost_.hidden_dim);
  if (feature_forwarding_) per_row += static_cast<std::size_t>(cost_in_width_);
  return per_row;
}

// ---------------------------------------------------------------------------
// Execution

namespace {

/// Fused epilogue for one output row: bias add, eval-mode batch norm, ReLU.
/// Each stage uses the exact expressions of its autograd op (ops::add_rowvec,
/// the eval branch of ops::batchnorm, ops::relu) in the same order, so the
/// chain is bit-identical to running those ops back to back.
inline void epilogue_row(float* row, int width, const float* bias,
                         const float* gamma, const float* beta,
                         const float* mean, const float* inv_std, bool relu) {
  for (int c = 0; c < width; ++c) {
    float v = row[c];
    if (bias != nullptr) v += bias[c];
    if (gamma != nullptr) {
      const float xh = (v - mean[c]) * inv_std[c];
      v = gamma[c] * xh + beta[c];
    }
    if (relu) v = std::max(0.0F, v);
    row[c] = v;
  }
}

}  // namespace

void Plan::run_trunk_rows(const Trunk& trunk, long lo, long hi,
                          const float* in, float* h, float* z,
                          float* out) const {
  for (std::size_t s = 0; s < trunk.steps.size(); ++s) {
    const Step& step = trunk.steps[s];
    const bool is_head = s + 1 == trunk.steps.size();
    const float* src = (s == 0) ? in : h;
    float* dst = is_head ? out : (step.residual ? z : h);

    // The shared blocked kernel: same code object as ops::matmul forward.
    std::fill(dst + lo * step.out, dst + hi * step.out, 0.0F);
    gemm::gemm_rows(src, step.weight.data(), dst, lo, hi, step.in, step.out,
                    step.b_finite);

    const float* bias = step.bias.numel() != 0 ? step.bias.data() : nullptr;
    const float* gamma = step.has_norm ? step.gamma.data() : nullptr;
    for (long r = lo; r < hi; ++r) {
      float* dst_row = dst + r * step.out;
      epilogue_row(dst_row, step.out, bias, gamma,
                   step.has_norm ? step.beta.data() : nullptr,
                   step.has_norm ? step.mean.data() : nullptr,
                   step.has_norm ? step.inv_std.data() : nullptr, step.relu);
      if (step.residual) {
        // h = z + h, the operand order of ops::add(z, h) in ResidualMlp.
        float* h_row = h + r * step.out;
        for (int c = 0; c < step.out; ++c) h_row[c] = dst_row[c] + h_row[c];
      }
    }
  }
}

void Plan::run_rows(long lo, long hi, int n, const float* input,
                    float* metrics_out, float* hw_out, Arena& arena) const {
  // Arena slab layout (stride n rows, in this order).
  float* base = arena.f32_.data();
  float* hw_h = base;
  float* hw_z = hw_h + static_cast<std::size_t>(n) * hwgen_.hidden_dim;
  float* logits = hw_z + static_cast<std::size_t>(n) * hwgen_.hidden_dim;
  float* cost_in = logits + static_cast<std::size_t>(n) * hw_width_;
  float* cost_h =
      cost_in + (feature_forwarding_
                     ? static_cast<std::size_t>(n) * cost_in_width_
                     : 0);
  float* cost_z = cost_h + static_cast<std::size_t>(n) * cost_.hidden_dim;

  run_trunk_rows(hwgen_, lo, hi, input, hw_h, hw_z, logits);

  // Per-head hard argmax of the logits -> one-hot hardware encoding. Strict
  // > scan from the head's first column: first-max-wins, matching
  // hard_max_st over each slice (and leaving the head all-zero only never —
  // some column is always selected, index `begin` when all compare false).
  for (long r = lo; r < hi; ++r) {
    const float* lg = logits + r * hw_width_;
    float* hw_row = hw_out + r * hw_width_;
    std::fill(hw_row, hw_row + hw_width_, 0.0F);
    for (const auto& [begin, end] : head_ranges_) {
      int best = begin;
      for (int c = begin + 1; c < end; ++c) {
        if (lg[c] > lg[best]) best = c;
      }
      hw_row[best] = 1.0F;
    }
  }

  // Feature forwarding: cost input = [arch | hw one-hot], the concat_cols
  // layout. Without it the cost trunk reads the arch encoding directly.
  const float* cost_src = input;
  if (feature_forwarding_) {
    for (long r = lo; r < hi; ++r) {
      float* ci = cost_in + r * cost_in_width_;
      std::memcpy(ci, input + r * arch_width_,
                  static_cast<std::size_t>(arch_width_) * sizeof(float));
      std::memcpy(ci + arch_width_, hw_out + r * hw_width_,
                  static_cast<std::size_t>(hw_width_) * sizeof(float));
    }
    cost_src = cost_in;
  }

  run_trunk_rows(cost_, lo, hi, cost_src, cost_h, cost_z, metrics_out);

  // Output scaling: ops::mul_rowvec with the float-cast scales.
  for (long r = lo; r < hi; ++r) {
    float* m = metrics_out + r * 3;
    for (int c = 0; c < 3; ++c) m[c] *= output_scale_[static_cast<std::size_t>(c)];
  }
}

void Plan::run(const float* input, int n, float* metrics_out, float* hw_out,
               Arena& arena) const {
  if (n <= 0) throw std::invalid_argument("Plan::run: n <= 0");
  arena.prepare(*this, n);
  DANCE_PROFILE_SCOPE("infer.plan.run");
  // The whole schedule is row-parallel: every step (GEMM rows, epilogues,
  // argmax, concat, scaling) touches only its own rows of the arena slabs,
  // so one pool pass covers all layers and a row's activations stay hot in
  // cache from first GEMM to final scale. Bit-identity to serial execution
  // follows from per-row independence (the pool's static-partition
  // contract).
  util::parallel_for(
      0, n,
      [&](long lo, long hi) {
        run_rows(lo, hi, n, input, metrics_out, hw_out, arena);
      },
      /*grain=*/1);
}

}  // namespace dance::infer

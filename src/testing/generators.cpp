#include "testing/generators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace dance::testing {

namespace {

/// Log-uniform-ish positive integer in [1, hi]: small values are common,
/// large ones still reachable — matches how layer dimensions distribute.
int log_randint(util::Rng& rng, int hi) {
  const float u = rng.uniform(0.0F, std::log2(static_cast<float>(hi) + 1.0F));
  const int v = static_cast<int>(std::exp2(u));
  return std::clamp(v, 1, hi);
}

void push_if_valid(std::vector<accel::ConvShape>& out, accel::ConvShape s) {
  if (s.valid()) out.push_back(s);
}

}  // namespace

Generator<accel::ConvShape> conv_shape_gen() {
  Generator<accel::ConvShape> gen;
  gen.sample = [](util::Rng& rng) {
    accel::ConvShape s;
    s.n = log_randint(rng, 4);
    s.h = log_randint(rng, 32);
    s.w = rng.uniform() < 0.7F ? s.h : log_randint(rng, 32);
    s.stride = rng.uniform() < 0.25F ? 2 : 1;

    const int kind = rng.randint(0, 3);
    if (kind == 0) {
      // Pointwise: 1x1 dense, channel-heavy.
      s.r = s.s = 1;
      s.c = log_randint(rng, 128);
      s.k = log_randint(rng, 128);
    } else if (kind == 1) {
      // Depthwise: groups == c == k, odd kernel.
      s.r = s.s = 2 * rng.randint(0, 3) + 1;
      s.c = s.k = s.groups = log_randint(rng, 64);
    } else if (kind == 2) {
      // Grouped: channels are per-group counts times the group count.
      s.groups = 1 << rng.randint(1, 3);
      s.c = log_randint(rng, 16) * s.groups;
      s.k = log_randint(rng, 16) * s.groups;
      s.r = s.s = 2 * rng.randint(0, 2) + 1;
    } else {
      // Dense square conv.
      s.r = s.s = 2 * rng.randint(0, 3) + 1;
      s.c = log_randint(rng, 64);
      s.k = log_randint(rng, 64);
    }
    return s;
  };
  gen.shrink = [](const accel::ConvShape& s) {
    std::vector<accel::ConvShape> out;
    // Degroup first: a failure that survives groups=1 is easier to read.
    if (s.groups > 1) {
      accel::ConvShape t = s;
      t.groups = 1;
      t.c = s.c / s.groups;
      t.k = s.k / s.groups;
      push_if_valid(out, t);
    }
    const auto shrink_field = [&](int accel::ConvShape::*field, int target) {
      for (long v : shrink_toward(s.*field, target)) {
        accel::ConvShape t = s;
        t.*field = static_cast<int>(v);
        if (t.groups > 1) {
          // Keep divisibility: only shrink c/k in whole group multiples.
          if ((field == &accel::ConvShape::c || field == &accel::ConvShape::k) &&
              t.*field % t.groups != 0) {
            continue;
          }
        }
        push_if_valid(out, t);
      }
    };
    shrink_field(&accel::ConvShape::n, 1);
    shrink_field(&accel::ConvShape::h, 1);
    shrink_field(&accel::ConvShape::w, 1);
    shrink_field(&accel::ConvShape::c, s.groups);
    shrink_field(&accel::ConvShape::k, s.groups);
    shrink_field(&accel::ConvShape::r, 1);
    shrink_field(&accel::ConvShape::s, 1);
    shrink_field(&accel::ConvShape::stride, 1);
    return out;
  };
  gen.show = [](const accel::ConvShape& s) { return s.to_string(); };
  return gen;
}

Generator<accel::AcceleratorConfig> accel_config_gen() {
  Generator<accel::AcceleratorConfig> gen;
  gen.sample = [](util::Rng& rng) {
    accel::AcceleratorConfig c;
    c.pe_x = rng.randint(8, 24);
    c.pe_y = rng.randint(8, 24);
    c.rf_size = 4 * rng.randint(1, 16);
    c.dataflow = accel::kAllDataflows[static_cast<std::size_t>(rng.randint(0, 2))];
    return c;
  };
  gen.shrink = [](const accel::AcceleratorConfig& c) {
    std::vector<accel::AcceleratorConfig> out;
    for (long v : shrink_toward(c.pe_x, 8)) {
      accel::AcceleratorConfig t = c;
      t.pe_x = static_cast<int>(v);
      out.push_back(t);
    }
    for (long v : shrink_toward(c.pe_y, 8)) {
      accel::AcceleratorConfig t = c;
      t.pe_y = static_cast<int>(v);
      out.push_back(t);
    }
    for (long v : shrink_toward(c.rf_size / 4, 1)) {
      accel::AcceleratorConfig t = c;
      t.rf_size = 4 * static_cast<int>(v);
      out.push_back(t);
    }
    return out;
  };
  gen.show = [](const accel::AcceleratorConfig& c) { return c.to_string(); };
  return gen;
}

std::string show_tensor(const tensor::Tensor& t) {
  std::ostringstream out;
  out << "Tensor" << t.shape_str() << " [";
  const std::size_t n = std::min<std::size_t>(t.numel(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out << ", ";
    out << t[i];
  }
  if (t.numel() > n) out << ", ...";
  out << "]";
  return out.str();
}

Generator<std::vector<tensor::Tensor>> tensor_list_gen(int max_tensors,
                                                       int max_dim) {
  Generator<std::vector<tensor::Tensor>> gen;
  gen.sample = [max_tensors, max_dim](util::Rng& rng) {
    std::vector<tensor::Tensor> out;
    const int count = rng.randint(0, max_tensors);
    for (int t = 0; t < count; ++t) {
      tensor::Tensor ten = rng.uniform() < 0.3F
                               ? tensor::Tensor({rng.randint(1, max_dim)})
                               : tensor::Tensor({rng.randint(1, max_dim),
                                                 rng.randint(1, max_dim)});
      for (std::size_t i = 0; i < ten.numel(); ++i) {
        switch (rng.randint(0, 9)) {
          case 0: ten[i] = 0.0F; break;
          case 1: ten[i] = -0.0F; break;
          case 2: ten[i] = std::numeric_limits<float>::infinity(); break;
          case 3: ten[i] = -std::numeric_limits<float>::infinity(); break;
          case 4: ten[i] = std::numeric_limits<float>::quiet_NaN(); break;
          case 5: ten[i] = std::numeric_limits<float>::denorm_min(); break;
          default: ten[i] = rng.normal(0.0F, 10.0F); break;
        }
      }
      out.push_back(std::move(ten));
    }
    return out;
  };
  gen.shrink = [](const std::vector<tensor::Tensor>& ts) {
    std::vector<std::vector<tensor::Tensor>> out;
    // Drop one tensor at a time.
    for (std::size_t i = 0; i < ts.size(); ++i) {
      std::vector<tensor::Tensor> smaller;
      for (std::size_t j = 0; j < ts.size(); ++j) {
        if (j != i) smaller.push_back(ts[j]);
      }
      out.push_back(std::move(smaller));
    }
    return out;
  };
  gen.show = [](const std::vector<tensor::Tensor>& ts) {
    std::ostringstream out;
    out << ts.size() << " tensors {";
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (i != 0) out << "; ";
      out << show_tensor(ts[i]);
    }
    out << "}";
    return out.str();
  };
  return gen;
}

Generator<tensor::Tensor> arch_encoding_gen(int num_blocks, int num_ops) {
  Generator<tensor::Tensor> gen;
  gen.sample = [num_blocks, num_ops](util::Rng& rng) {
    tensor::Tensor enc({1, num_blocks * num_ops});
    for (int b = 0; b < num_blocks; ++b) {
      float* row = enc.data() + static_cast<std::ptrdiff_t>(b) * num_ops;
      if (rng.uniform() < 0.5F) {
        row[rng.randint(0, num_ops - 1)] = 1.0F;  // one-hot block
      } else {
        // Soft distribution: softmax of random logits.
        float maxv = -1e30F;
        std::vector<float> logits(static_cast<std::size_t>(num_ops));
        for (auto& l : logits) {
          l = rng.normal(0.0F, 2.0F);
          maxv = std::max(maxv, l);
        }
        float sum = 0.0F;
        for (auto& l : logits) {
          l = std::exp(l - maxv);
          sum += l;
        }
        for (int j = 0; j < num_ops; ++j) row[j] = logits[static_cast<std::size_t>(j)] / sum;
      }
    }
    return enc;
  };
  gen.shrink = [num_blocks, num_ops](const tensor::Tensor& enc) {
    std::vector<tensor::Tensor> out;
    // Collapse one soft block at a time to a first-op one-hot.
    for (int b = 0; b < num_blocks; ++b) {
      const float* row = enc.data() + static_cast<std::ptrdiff_t>(b) * num_ops;
      const bool already = row[0] == 1.0F;
      if (already) continue;
      tensor::Tensor t = enc;
      float* trow = t.data() + static_cast<std::ptrdiff_t>(b) * num_ops;
      for (int j = 0; j < num_ops; ++j) trow[j] = j == 0 ? 1.0F : 0.0F;
      out.push_back(std::move(t));
    }
    return out;
  };
  gen.show = show_tensor;
  return gen;
}

std::string PoolWorkload::to_string() const {
  std::ostringstream out;
  out << "PoolWorkload(n=" << n << " grain=" << grain << " threads=" << threads
      << " body=" << body << ")";
  return out.str();
}

Generator<PoolWorkload> pool_workload_gen(int num_bodies) {
  Generator<PoolWorkload> gen;
  gen.sample = [num_bodies](util::Rng& rng) {
    PoolWorkload w;
    // Mix tiny (inline) ranges, grain-boundary-straddling ranges and ranges
    // much larger than lane count * grain.
    w.n = static_cast<long>(log_randint(rng, 1 << 15)) - 1;
    w.grain = static_cast<long>(log_randint(rng, 4096));
    w.threads = rng.randint(1, 8);
    w.body = rng.randint(0, num_bodies - 1);
    return w;
  };
  gen.shrink = [](const PoolWorkload& w) {
    std::vector<PoolWorkload> out;
    for (long v : shrink_toward(w.n, 0)) {
      PoolWorkload t = w;
      t.n = v;
      out.push_back(t);
    }
    for (long v : shrink_toward(w.grain, 1)) {
      PoolWorkload t = w;
      t.grain = v;
      out.push_back(t);
    }
    for (long v : shrink_toward(w.threads, 1)) {
      PoolWorkload t = w;
      t.threads = static_cast<int>(v);
      out.push_back(t);
    }
    return out;
  };
  gen.show = [](const PoolWorkload& w) { return w.to_string(); };
  return gen;
}

}  // namespace dance::testing

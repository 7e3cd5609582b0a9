#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "runtime/profiler.h"
#include "tensor/gemm.h"
#include "util/parallel.h"

namespace dance::tensor::ops {

namespace {

/// Grain for loops parallelized over the rows of an [N, D] tensor: target
/// ~2k elements of work per chunk so narrow matrices don't over-schedule.
long row_grain(int d) { return std::max(1L, 2048L / std::max(1, d)); }

/// Create the result node of an op. If no parent needs gradients, the
/// backward closure and parent links are dropped so constant subgraphs cost
/// nothing at backward time.
Variable make_result(Tensor value, std::vector<std::shared_ptr<Node>> parents,
                     std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  bool any = false;
  for (const auto& p : parents) {
    if (p && p->requires_grad) any = true;
  }
  node->requires_grad = any;
  if (any) {
    node->parents = std::move(parents);
    node->backward = std::move(backward);
  }
  return Variable::from_node(std::move(node));
}

void check_same_shape(const Variable& a, const Variable& b, const char* op) {
  if (!a.value().same_shape(b.value())) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.value().shape_str() + " vs " +
                                b.value().shape_str());
  }
}

/// Open parent `p` for a backward's contribution. False if `p` takes no
/// gradient; otherwise allocates its buffer (at +0) and marks it live, so
/// Variable::backward runs `p`'s own backward after this one. A backward
/// calls it only for the parents it then writes into.
bool into(const std::shared_ptr<Node>& p) {
  if (!p || !p->requires_grad) return false;
  p->ensure_grad();
  p->grad_live = true;
  return true;
}

/// [cols, rows] copy of a rank-2 tensor, for matmul's backward products.
Tensor transposed(const Tensor& t) {
  const std::size_t rows = t.rows();
  const std::size_t cols = t.cols();
  Tensor out({t.cols(), t.rows()});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out[c * rows + r] = t[r * cols + c];
  }
  return out;
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "add");
  Tensor out = a.value();
  out.add_(b.value());
  return make_result(std::move(out), {a.node(), b.node()}, [](Node& self) {
    for (int k = 0; k < 2; ++k) {
      auto& p = self.parents[static_cast<std::size_t>(k)];
      if (!into(p)) continue;
      for (std::size_t i = 0; i < self.grad.numel(); ++i) p->grad[i] += self.grad[i];
    }
  });
}

Variable add_rowvec(const Variable& a, const Variable& bias) {
  if (a.value().rank() != 2 || bias.value().rank() != 1 ||
      a.value().cols() != bias.value().dim(0)) {
    throw std::invalid_argument("add_rowvec: expected [N,D] + [D]");
  }
  const int n = a.value().rows();
  const int d = a.value().cols();
  Tensor out = a.value();
  // Distinct buffers, so the row loops vectorise.
  {
    float* __restrict o = out.data();
    const float* __restrict bv = bias.value().data();
    for (int r = 0; r < n; ++r, o += d) {
      for (int c = 0; c < d; ++c) o[c] += bv[c];
    }
  }
  return make_result(std::move(out), {a.node(), bias.node()}, [n, d](Node& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    if (into(pa)) pa->grad.add_(self.grad);
    if (into(pb)) {
      // Each column sums its rows in ascending order.
      float* __restrict gb = pb->grad.data();
      const float* __restrict gs = self.grad.data();
      for (int r = 0; r < n; ++r, gs += d) {
        for (int c = 0; c < d; ++c) gb[c] += gs[c];
      }
    }
  });
}

Variable sub(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a.value();
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] -= b.value()[i];
  return make_result(std::move(out), {a.node(), b.node()}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    if (into(pa)) pa->grad.add_(self.grad);
    if (into(pb)) {
      for (std::size_t i = 0; i < self.grad.numel(); ++i) pb->grad[i] -= self.grad[i];
    }
  });
}

Variable mul(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a.value();
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] *= b.value()[i];
  return make_result(std::move(out), {a.node(), b.node()}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    const bool to_a = into(pa);
    const bool to_b = into(pb);
    for (std::size_t i = 0; i < self.grad.numel(); ++i) {
      if (to_a) pa->grad[i] += self.grad[i] * pb->value[i];
      if (to_b) pb->grad[i] += self.grad[i] * pa->value[i];
    }
  });
}

Variable scale(const Variable& a, float s) {
  Tensor out = a.value();
  out.scale_(s);
  return make_result(std::move(out), {a.node()}, [s](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    for (std::size_t i = 0; i < self.grad.numel(); ++i) pa->grad[i] += s * self.grad[i];
  });
}

Variable scale_by(const Variable& a, const Variable& s) {
  if (s.value().numel() != 1) {
    throw std::invalid_argument("scale_by: scalar variable must have 1 element");
  }
  const float sv = s.value()[0];
  Tensor out = a.value();
  out.scale_(sv);
  return make_result(std::move(out), {a.node(), s.node()}, [](Node& self) {
    auto& pa = self.parents[0];
    auto& ps = self.parents[1];
    const float sval = ps->value[0];
    const std::size_t n = self.grad.numel();
    // The scale's gradient <dL/dy, a> is always taken: a zero gate still
    // learns from its op's output.
    float acc = 0.0F;
    for (std::size_t i = 0; i < n; ++i) acc += self.grad[i] * pa->value[i];
    // An exactly-zero scale sends `a` only dL/dy * 0, which is +-0 wherever
    // dL/dy is finite, and adding +-0 to a gradient buffer changes no bit
    // (docs/runtime.md, "Autograd tape"). So it sends nothing, and `a`'s
    // whole subgraph skips its backward. `acc` is finite only if every
    // element of dL/dy and of `a` is, so a NaN or inf on either side still
    // takes the full path and poisons what it poisoned before.
    if (!(sval == 0.0F && std::isfinite(acc)) && into(pa)) {
      for (std::size_t i = 0; i < n; ++i) pa->grad[i] += self.grad[i] * sval;
    }
    if (into(ps)) ps->grad[0] += acc;
  });
}

Variable mul_rowvec(const Variable& a, const Tensor& row) {
  if (a.value().rank() != 2 || row.rank() != 1 || a.value().cols() != row.dim(0)) {
    throw std::invalid_argument("mul_rowvec: expected [N,D] * [D]");
  }
  const int n = a.value().rows();
  const int d = a.value().cols();
  Tensor out = a.value();
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) out.at(r, c) *= row[static_cast<std::size_t>(c)];
  }
  auto scale_row = std::make_shared<Tensor>(row);
  return make_result(std::move(out), {a.node()}, [scale_row, n, d](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < d; ++c) {
        pa->grad.at(r, c) +=
            self.grad.at(r, c) * (*scale_row)[static_cast<std::size_t>(c)];
      }
    }
  });
}

Variable matmul(const Variable& a, const Variable& b) {
  if (a.value().rank() != 2 || b.value().rank() != 2 ||
      a.value().cols() != b.value().rows()) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                a.value().shape_str() + " x " +
                                b.value().shape_str());
  }
  const int n = a.value().rows();
  const int k = a.value().cols();
  const int m = b.value().cols();
  Tensor out({n, m});
  {
    DANCE_PROFILE_SCOPE("tensor.matmul");
    // Shared blocked kernel (tensor/gemm.h): cache-tiled, pool-partitioned,
    // bit-identical to the historical naive loop — including the zero-skip
    // that is only sound while B is finite everywhere (0 * NaN and 0 * inf
    // must produce NaN, not silently vanish; poisoned activations have to
    // keep propagating).
    gemm::gemm(a.value().data(), b.value().data(), out.data(), n, k, m);
  }
  return make_result(std::move(out), {a.node(), b.node()}, [n, k, m](Node& self) {
    DANCE_PROFILE_SCOPE("tensor.matmul.bwd");
    // Both products run on the same kernel as the forward, so each element
    // still sums its terms in ascending order, and the zero-skip stays gated
    // on the other operand being finite everywhere.
    auto& pa = self.parents[0];
    auto& pb = self.parents[1];
    if (into(pa)) {
      // dA = dC * B^T, summed from zero and then added to A's gradient once,
      // like a per-element dot product. Accumulating straight into a
      // gradient that is already non-zero would round differently.
      Tensor da({n, k});
      gemm::gemm(self.grad.data(), transposed(pb->value).data(), da.data(), n,
                 m, k);
      pa->grad.add_(da);
    }
    if (into(pb)) {
      // dB = A^T * dC, accumulated straight into B's gradient over ascending i.
      gemm::gemm(transposed(pa->value).data(), self.grad.data(),
                 pb->grad.data(), k, n, m);
    }
  });
}

Variable relu(const Variable& a) {
  Tensor out = a.value();
  // NaN compares false, so it passes through: a poisoned pre-activation
  // stays poisoned, as the GEMM's zero-skip rule requires (tensor/gemm.h).
  // -0 becomes +0, and every other input keeps its bits.
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = out[i] <= 0.0F ? 0.0F : out[i];
  }
  return make_result(std::move(out), {a.node()}, [](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    // Adds dL/dy masked by the bits of (y > 0): where the mask is clear
    // this adds +0, which leaves every gradient buffer's bits as they were
    // (a buffer never holds -0), so the sum equals the branchy
    // `if (y > 0) dx += dy` loop bit for bit. Unlike that loop, GCC
    // vectorises this one (compare, and, add), and it has no branch for the
    // sign pattern of y to mispredict.
    const float* y = self.value.data();
    const float* dy = self.grad.data();
    float* dx = pa->grad.data();
    for (std::size_t i = 0; i < self.grad.numel(); ++i) {
      const std::uint32_t keep = 0U - static_cast<std::uint32_t>(y[i] > 0.0F);
      dx[i] += std::bit_cast<float>(std::bit_cast<std::uint32_t>(dy[i]) & keep);
    }
  });
}

Variable sigmoid(const Variable& a) {
  Tensor out = a.value();
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = 1.0F / (1.0F + std::exp(-out[i]));
  }
  return make_result(std::move(out), {a.node()}, [](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    for (std::size_t i = 0; i < self.grad.numel(); ++i) {
      const float y = self.value[i];
      pa->grad[i] += self.grad[i] * y * (1.0F - y);
    }
  });
}

namespace {
// Rows are independent and each row's reduction stays inside one lane, so
// the result is bit-identical to a serial pass at any thread count.
void softmax_rows_inplace(Tensor& t) {
  const int n = t.rows();
  const int d = t.cols();
  util::parallel_for(0, n, [&](long lo, long hi) {
    for (long r = lo; r < hi; ++r) {
      const int ri = static_cast<int>(r);
      float mx = t.at(ri, 0);
      for (int c = 1; c < d; ++c) mx = std::max(mx, t.at(ri, c));
      float sum = 0.0F;
      for (int c = 0; c < d; ++c) {
        t.at(ri, c) = std::exp(t.at(ri, c) - mx);
        sum += t.at(ri, c);
      }
      for (int c = 0; c < d; ++c) t.at(ri, c) /= sum;
    }
  }, row_grain(d));
}
}  // namespace

Variable softmax_rows(const Variable& a) {
  if (a.value().rank() != 2) throw std::invalid_argument("softmax_rows: rank != 2");
  DANCE_PROFILE_SCOPE("tensor.softmax_rows");
  Tensor out = a.value();
  softmax_rows_inplace(out);
  const int n = out.rows();
  const int d = out.cols();
  return make_result(std::move(out), {a.node()}, [n, d](Node& self) {
    DANCE_PROFILE_SCOPE("tensor.softmax_rows.bwd");
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    util::parallel_for(0, n, [&](long lo, long hi) {
      for (long r = lo; r < hi; ++r) {
        const int ri = static_cast<int>(r);
        float dot = 0.0F;
        for (int c = 0; c < d; ++c) dot += self.grad.at(ri, c) * self.value.at(ri, c);
        for (int c = 0; c < d; ++c) {
          pa->grad.at(ri, c) += self.value.at(ri, c) * (self.grad.at(ri, c) - dot);
        }
      }
    }, row_grain(d));
  });
}

Variable log_softmax_rows(const Variable& a) {
  if (a.value().rank() != 2) throw std::invalid_argument("log_softmax_rows: rank != 2");
  DANCE_PROFILE_SCOPE("tensor.log_softmax_rows");
  const int n = a.value().rows();
  const int d = a.value().cols();
  Tensor out = a.value();
  util::parallel_for(0, n, [&](long lo, long hi) {
    for (long r = lo; r < hi; ++r) {
      const int ri = static_cast<int>(r);
      float mx = out.at(ri, 0);
      for (int c = 1; c < d; ++c) mx = std::max(mx, out.at(ri, c));
      float sum = 0.0F;
      for (int c = 0; c < d; ++c) sum += std::exp(out.at(ri, c) - mx);
      const float lse = mx + std::log(sum);
      for (int c = 0; c < d; ++c) out.at(ri, c) -= lse;
    }
  }, row_grain(d));
  return make_result(std::move(out), {a.node()}, [n, d](Node& self) {
    DANCE_PROFILE_SCOPE("tensor.log_softmax_rows.bwd");
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    util::parallel_for(0, n, [&](long lo, long hi) {
      for (long r = lo; r < hi; ++r) {
        const int ri = static_cast<int>(r);
        float gsum = 0.0F;
        for (int c = 0; c < d; ++c) gsum += self.grad.at(ri, c);
        for (int c = 0; c < d; ++c) {
          pa->grad.at(ri, c) +=
              self.grad.at(ri, c) - std::exp(self.value.at(ri, c)) * gsum;
        }
      }
    }, row_grain(d));
  });
}

Variable concat_cols(const std::vector<Variable>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: no inputs");
  const int n = parts.front().value().rows();
  int total = 0;
  for (const auto& p : parts) {
    if (p.value().rank() != 2 || p.value().rows() != n) {
      throw std::invalid_argument("concat_cols: row mismatch");
    }
    total += p.value().cols();
  }
  Tensor out({n, total});
  std::vector<int> widths;
  widths.reserve(parts.size());
  int off = 0;
  for (const auto& p : parts) {
    const int w = p.value().cols();
    widths.push_back(w);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < w; ++c) out.at(r, off + c) = p.value().at(r, c);
    }
    off += w;
  }
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(parts.size());
  for (const auto& p : parts) parents.push_back(p.node());
  return make_result(std::move(out), std::move(parents), [n, widths](Node& self) {
    int off2 = 0;
    for (std::size_t k = 0; k < widths.size(); ++k) {
      auto& p = self.parents[k];
      const int w = widths[k];
      if (into(p)) {
        for (int r = 0; r < n; ++r) {
          for (int c = 0; c < w; ++c) p->grad.at(r, c) += self.grad.at(r, off2 + c);
        }
      }
      off2 += w;
    }
  });
}

Variable slice_cols(const Variable& a, int from, int to) {
  if (a.value().rank() != 2 || from < 0 || to > a.value().cols() || from >= to) {
    throw std::invalid_argument("slice_cols: bad range");
  }
  const int n = a.value().rows();
  const int w = to - from;
  Tensor out({n, w});
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < w; ++c) out.at(r, c) = a.value().at(r, from + c);
  }
  return make_result(std::move(out), {a.node()}, [n, w, from](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < w; ++c) pa->grad.at(r, from + c) += self.grad.at(r, c);
    }
  });
}

Variable mean_all(const Variable& a) {
  const std::size_t n = a.value().numel();
  float acc = 0.0F;
  for (std::size_t i = 0; i < n; ++i) acc += a.value()[i];
  Tensor out({1});
  out[0] = acc / static_cast<float>(n);
  return make_result(std::move(out), {a.node()}, [n](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    const float g = self.grad[0] / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) pa->grad[i] += g;
  });
}

Variable sum_all(const Variable& a) {
  const std::size_t n = a.value().numel();
  float acc = 0.0F;
  for (std::size_t i = 0; i < n; ++i) acc += a.value()[i];
  Tensor out({1});
  out[0] = acc;
  return make_result(std::move(out), {a.node()}, [n](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    const float g = self.grad[0];
    for (std::size_t i = 0; i < n; ++i) pa->grad[i] += g;
  });
}

Variable cross_entropy(const Variable& logits, const std::vector<int>& labels) {
  if (logits.value().rank() != 2 ||
      static_cast<std::size_t>(logits.value().rows()) != labels.size()) {
    throw std::invalid_argument("cross_entropy: batch mismatch");
  }
  DANCE_PROFILE_SCOPE("tensor.cross_entropy");
  const int n = logits.value().rows();
  const int d = logits.value().cols();
  // probs are captured by the backward closure.
  auto probs = std::make_shared<Tensor>(logits.value());
  softmax_rows_inplace(*probs);
  float loss = 0.0F;
  for (int r = 0; r < n; ++r) {
    const float p = std::max(probs->at(r, labels[static_cast<std::size_t>(r)]), 1e-12F);
    loss -= std::log(p);
  }
  Tensor out({1});
  out[0] = loss / static_cast<float>(n);
  return make_result(std::move(out), {logits.node()},
                     [probs, labels, n, d](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    const float g = self.grad[0] / static_cast<float>(n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < d; ++c) {
        const float ind = (labels[static_cast<std::size_t>(r)] == c) ? 1.0F : 0.0F;
        pa->grad.at(r, c) += g * (probs->at(r, c) - ind);
      }
    }
  });
}

Variable mse(const Variable& pred, const Tensor& target) {
  if (!pred.value().same_shape(target)) {
    throw std::invalid_argument("mse: shape mismatch");
  }
  const std::size_t n = pred.value().numel();
  float acc = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred.value()[i] - target[i];
    acc += d * d;
  }
  Tensor out({1});
  out[0] = acc / static_cast<float>(n);
  auto tgt = std::make_shared<Tensor>(target);
  return make_result(std::move(out), {pred.node()}, [tgt, n](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    const float g = 2.0F * self.grad[0] / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      pa->grad[i] += g * (pa->value[i] - (*tgt)[i]);
    }
  });
}

Variable msre(const Variable& pred, const Tensor& target, float eps) {
  if (!pred.value().same_shape(target)) {
    throw std::invalid_argument("msre: shape mismatch");
  }
  const std::size_t n = pred.value().numel();
  float acc = 0.0F;
  std::size_t valid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(target[i]) < eps) continue;
    const float d = 1.0F - pred.value()[i] / target[i];
    acc += d * d;
    ++valid;
  }
  Tensor out({1});
  out[0] = valid == 0 ? 0.0F : acc / static_cast<float>(valid);
  auto tgt = std::make_shared<Tensor>(target);
  return make_result(std::move(out), {pred.node()}, [tgt, n, valid, eps](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa) || valid == 0) return;
    const float g = 2.0F * self.grad[0] / static_cast<float>(valid);
    for (std::size_t i = 0; i < n; ++i) {
      const float t = (*tgt)[i];
      if (std::abs(t) < eps) continue;
      pa->grad[i] += g * (pa->value[i] / t - 1.0F) / t;
    }
  });
}

Variable batchnorm(const Variable& x, const Variable& gamma, const Variable& beta,
                   Tensor& running_mean, Tensor& running_var, float momentum,
                   float eps, bool training) {
  if (x.value().rank() != 2) throw std::invalid_argument("batchnorm: rank != 2");
  const int n = x.value().rows();
  const int d = x.value().cols();
  if (gamma.value().dim(0) != d || beta.value().dim(0) != d) {
    throw std::invalid_argument("batchnorm: parameter width mismatch");
  }

  DANCE_PROFILE_SCOPE("tensor.batchnorm");
  auto mean = std::make_shared<Tensor>(std::vector<int>{d});
  auto inv_std = std::make_shared<Tensor>(std::vector<int>{d});
  // Columns are independent: each lane reduces whole columns and writes the
  // per-column statistics (including the running buffers) disjointly.
  if (training) {
    util::parallel_for(0, d, [&](long lo, long hi) {
      for (long c = lo; c < hi; ++c) {
        const int ci = static_cast<int>(c);
        float m = 0.0F;
        for (int r = 0; r < n; ++r) m += x.value().at(r, ci);
        m /= static_cast<float>(n);
        float v = 0.0F;
        for (int r = 0; r < n; ++r) {
          const float dd = x.value().at(r, ci) - m;
          v += dd * dd;
        }
        v /= static_cast<float>(n);
        (*mean)[static_cast<std::size_t>(c)] = m;
        (*inv_std)[static_cast<std::size_t>(c)] = 1.0F / std::sqrt(v + eps);
        running_mean[static_cast<std::size_t>(c)] =
            (1.0F - momentum) * running_mean[static_cast<std::size_t>(c)] + momentum * m;
        running_var[static_cast<std::size_t>(c)] =
            (1.0F - momentum) * running_var[static_cast<std::size_t>(c)] + momentum * v;
      }
    }, row_grain(n));
  } else {
    for (int c = 0; c < d; ++c) {
      (*mean)[static_cast<std::size_t>(c)] = running_mean[static_cast<std::size_t>(c)];
      (*inv_std)[static_cast<std::size_t>(c)] =
          1.0F / std::sqrt(running_var[static_cast<std::size_t>(c)] + eps);
    }
  }

  // Cache x_hat for the backward pass.
  auto x_hat = std::make_shared<Tensor>(std::vector<int>{n, d});
  Tensor out({n, d});
  util::parallel_for(0, n, [&](long lo, long hi) {
    for (long r = lo; r < hi; ++r) {
      const int ri = static_cast<int>(r);
      for (int c = 0; c < d; ++c) {
        const float xh = (x.value().at(ri, c) - (*mean)[static_cast<std::size_t>(c)]) *
                         (*inv_std)[static_cast<std::size_t>(c)];
        x_hat->at(ri, c) = xh;
        out.at(ri, c) = gamma.value()[static_cast<std::size_t>(c)] * xh +
                        beta.value()[static_cast<std::size_t>(c)];
      }
    }
  }, row_grain(d));

  return make_result(
      std::move(out), {x.node(), gamma.node(), beta.node()},
      [x_hat, inv_std, n, d, training](Node& self) {
        DANCE_PROFILE_SCOPE("tensor.batchnorm.bwd");
        auto& px = self.parents[0];
        auto& pg = self.parents[1];
        auto& pb = self.parents[2];
        // Opened once, before the lanes start: into() allocates.
        const bool to_x = into(px);
        const bool to_g = into(pg);
        const bool to_b = into(pb);
        util::parallel_for(0, d, [&](long lo, long hi) {
          for (long cc = lo; cc < hi; ++cc) {
            const int c = static_cast<int>(cc);
            float sum_dy = 0.0F;
            float sum_dy_xhat = 0.0F;
            for (int r = 0; r < n; ++r) {
              sum_dy += self.grad.at(r, c);
              sum_dy_xhat += self.grad.at(r, c) * x_hat->at(r, c);
            }
            if (to_g) pg->grad[static_cast<std::size_t>(c)] += sum_dy_xhat;
            if (to_b) pb->grad[static_cast<std::size_t>(c)] += sum_dy;
            if (to_x) {
              const float gamma_c = pg->value[static_cast<std::size_t>(c)];
              const float istd = (*inv_std)[static_cast<std::size_t>(c)];
              if (training) {
                const float inv_n = 1.0F / static_cast<float>(n);
                for (int r = 0; r < n; ++r) {
                  px->grad.at(r, c) +=
                      gamma_c * istd *
                      (self.grad.at(r, c) - inv_n * sum_dy -
                       inv_n * x_hat->at(r, c) * sum_dy_xhat);
                }
              } else {
                for (int r = 0; r < n; ++r) {
                  px->grad.at(r, c) += gamma_c * istd * self.grad.at(r, c);
                }
              }
            }
          }
        }, row_grain(n));
      });
}

Variable gumbel_softmax(const Variable& logits, float tau, bool hard,
                        util::Rng& rng) {
  if (logits.value().rank() != 2) {
    throw std::invalid_argument("gumbel_softmax: rank != 2");
  }
  if (tau <= 0.0F) throw std::invalid_argument("gumbel_softmax: tau must be > 0");
  DANCE_PROFILE_SCOPE("tensor.gumbel_softmax");
  const int n = logits.value().rows();
  const int d = logits.value().cols();
  // y_soft = softmax((logits + g) / tau)
  auto y_soft = std::make_shared<Tensor>(logits.value());
  for (std::size_t i = 0; i < y_soft->numel(); ++i) {
    (*y_soft)[i] = ((*y_soft)[i] + rng.gumbel()) / tau;
  }
  softmax_rows_inplace(*y_soft);

  Tensor out = *y_soft;
  if (hard) {
    for (int r = 0; r < n; ++r) {
      int arg = 0;
      for (int c = 1; c < d; ++c) {
        if (y_soft->at(r, c) > y_soft->at(r, arg)) arg = c;
      }
      for (int c = 0; c < d; ++c) out.at(r, c) = (c == arg) ? 1.0F : 0.0F;
    }
  }
  return make_result(std::move(out), {logits.node()},
                     [y_soft, tau, n, d](Node& self) {
    auto& pa = self.parents[0];
    if (!into(pa)) return;
    // Straight-through: gradient of the soft sample regardless of `hard`.
    for (int r = 0; r < n; ++r) {
      float dot = 0.0F;
      for (int c = 0; c < d; ++c) dot += self.grad.at(r, c) * y_soft->at(r, c);
      for (int c = 0; c < d; ++c) {
        pa->grad.at(r, c) +=
            y_soft->at(r, c) * (self.grad.at(r, c) - dot) / tau;
      }
    }
  });
}

Variable hard_max_st(const Variable& a) {
  if (a.value().rank() != 2) throw std::invalid_argument("hard_max_st: rank != 2");
  const int n = a.value().rows();
  const int d = a.value().cols();
  Tensor out({n, d});
  for (int r = 0; r < n; ++r) {
    int arg = 0;
    for (int c = 1; c < d; ++c) {
      if (a.value().at(r, c) > a.value().at(r, arg)) arg = c;
    }
    out.at(r, arg) = 1.0F;
  }
  return make_result(std::move(out), {a.node()}, [](Node& self) {
    auto& pa = self.parents[0];
    if (into(pa)) pa->grad.add_(self.grad);
  });
}

}  // namespace dance::tensor::ops

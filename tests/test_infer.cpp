// Unit tests for the inference arithmetic: the shared blocked GEMM and its
// finiteness scan, batch stacking for Evaluator::forward_batch, and the
// SurrogateBackend, whose answers must be bit-identical to forward_batch,
// including under concurrent direct callers.
// Suite names carry a lowercase "infer" prefix on purpose: `ctest -R infer`
// selects exactly these suites (plus the randomized GEMM property suite in
// test_property_infer.cpp).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/backbone.h"
#include "arch/ops.h"
#include "evalnet/evaluator.h"
#include "runtime/thread_pool.h"
#include "serve/backend.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace {

using namespace dance;

/// Bitwise float comparison (covers -0.0 and NaN payloads).
bool bit_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Small evaluator in frozen eval mode; fresh per call so tests can mutate.
evalnet::Evaluator make_evaluator(const hwgen::HwSearchSpace& space, int width,
                                  std::uint64_t seed = 0x1f3e) {
  util::Rng rng(seed);
  evalnet::Evaluator::Options opts;
  opts.hwgen.hidden_dim = 24;
  opts.hwgen.num_layers = 3;
  opts.cost.hidden_dim = 24;
  opts.cost.num_layers = 3;
  evalnet::Evaluator ev(width, space, rng, opts);
  ev.set_frozen(true);
  ev.set_training(false);
  return ev;
}

hwgen::HwSearchSpace small_space() {
  return hwgen::HwSearchSpace(
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8});
}

std::vector<std::vector<float>> random_rows(int n, int width,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> rows(static_cast<std::size_t>(n));
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(width));
    for (auto& v : row) v = rng.uniform();
  }
  return rows;
}

TEST(infer_gemm, BlockedMatchesNaiveTripleLoop) {
  util::Rng rng(0x6e44);
  const int n = 7, k = 33, m = 19;  // straddles both block boundaries
  std::vector<float> a(static_cast<std::size_t>(n) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * m);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  a[5] = 0.0F;  // exercise the zero-skip
  a[40] = 0.0F;

  std::vector<float> ref(static_cast<std::size_t>(n) * m, 0.0F);
  for (int i = 0; i < n; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<std::size_t>(i) * k + kk];
      for (int j = 0; j < m; ++j) {
        ref[static_cast<std::size_t>(i) * m + j] +=
            av * b[static_cast<std::size_t>(kk) * m + j];
      }
    }
  }

  std::vector<float> c(static_cast<std::size_t>(n) * m, 0.0F);
  tensor::gemm::gemm(a.data(), b.data(), c.data(), n, k, m);
  EXPECT_TRUE(bit_equal(ref.data(), c.data(), ref.size()));
}

TEST(infer_gemm, ZeroTimesNonFinitePoisons) {
  // 0 * NaN must land NaN in C (the PR 5 matmul regression): the zero-skip
  // is only legal while B is finite everywhere.
  const int n = 1, k = 2, m = 1;
  const float a[2] = {0.0F, 0.0F};
  const float b[2] = {std::nanf(""), 1.0F};
  float c[1] = {0.0F};
  tensor::gemm::gemm(a, b, c, n, k, m);
  EXPECT_TRUE(std::isnan(c[0]));
  EXPECT_FALSE(tensor::gemm::all_finite(b, 2));
  EXPECT_TRUE(tensor::gemm::all_finite(a, 2));
}

/// The textbook i/kk/j loop with the kernel's zero-skip (only while B is
/// finite), accumulating into `c`.
void naive_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, int n, int k, int m) {
  const bool b_finite = tensor::gemm::all_finite(b.data(), b.size());
  for (int i = 0; i < n; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<std::size_t>(i) * k + kk];
      if (av == 0.0F && b_finite) continue;
      for (int j = 0; j < m; ++j) {
        c[static_cast<std::size_t>(i) * m + j] +=
            av * b[static_cast<std::size_t>(kk) * m + j];
      }
    }
  }
}

/// Bit-identical, except that NaN only has to land where `want` has NaN:
/// when both operands of an add are NaN, x86 keeps the first one's bits, and
/// the vectorised kernel orders its operands differently.
::testing::AssertionResult same_up_to_nan_bits(const float* want,
                                                const float* got,
                                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool same = std::isnan(want[i]) ? std::isnan(got[i])
                                          : bit_equal(want + i, got + i, 1);
    if (!same) {
      return ::testing::AssertionFailure()
             << "element " << i << ": want " << want[i] << ", got " << got[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(infer_gemm, PortableAndAvx2BodiesMatchNaiveTripleLoop) {
  using Body = void (*)(const float*, const float*, float*, int, int, int);
  std::vector<std::pair<const char*, Body>> bodies = {
      {"portable", tensor::gemm::detail::gemm_portable},
      {"dispatched", tensor::gemm::gemm}};
  // The AVX2 body can only run where the CPU has AVX2.
  if (tensor::gemm::detail::cpu_has_avx2()) {
    bodies.emplace_back("avx2", tensor::gemm::detail::gemm_avx2);
  }
  RecordProperty("bodies", static_cast<int>(bodies.size()));
  struct Shape {
    int n, k, m;
    bool all_masks = false;
  };
  std::vector<Shape> shapes;
  // Every width 1..17 (each m % 8 and m % 4, narrower than one vector too),
  // the supernet's hidden widths and trunk, two widths past one 64-float
  // chunk, and the evaluator's 256.
  for (int m = 1; m <= 17; ++m) shapes.push_back({5, 13, m});
  for (const int m : {30, 38, 46, 48, 56, 64, 65, 71, 100, 256}) {
    shapes.push_back({9, 48, m});
  }
  // k beyond one 256-kk compaction pass.
  shapes.push_back({3, 300, 30});
  shapes.push_back({2, 600, 46});
  // Every 8-lane zero-skip mask: kk group g of row i has mask 8i + g, so the
  // 32 rows run all 256 compaction-table entries, and k = 67 leaves a 3-kk
  // tail for the scalar compaction.
  shapes.push_back({32, 67, 20, true});
  util::Rng rng(0x51a7);
  for (const Shape& s : shapes) {
    // Variant 0: finite. 1: one non-finite entry in B, so the zero-skip is
    // off. Rows 0 and 2 of A are all-zero (row 0 as -0.0), and a quarter of
    // the other entries are ±0.
    for (int variant = 0; variant < 2; ++variant) {
      SCOPED_TRACE(::testing::Message() << s.n << "x" << s.k << "x" << s.m
                                        << " variant " << variant);
      std::vector<float> a(static_cast<std::size_t>(s.n) * s.k);
      std::vector<float> b(static_cast<std::size_t>(s.k) * s.m);
      std::vector<float> c0(static_cast<std::size_t>(s.n) * s.m);
      for (int i = 0; i < s.n; ++i) {
        for (int kk = 0; kk < s.k; ++kk) {
          const float u = rng.uniform();
          float v = u < 0.125F ? 0.0F : u < 0.25F ? -0.0F : rng.normal();
          if (i == 0) v = -0.0F;
          if (i == 2) v = 0.0F;
          if (s.all_masks && kk < 64) {
            // A set bit keeps a non-zero value (NaN in one lane); a clear
            // bit gets +0 or -0.
            const int mask = i * 8 + kk / 8;
            if ((mask >> (kk % 8) & 1) == 0) {
              v = rng.randint(0, 1) == 0 ? 0.0F : -0.0F;
            } else if (i == 31 && kk == 60) {
              v = std::numeric_limits<float>::quiet_NaN();
            } else {
              v = 1.0F + rng.uniform();
            }
          }
          a[static_cast<std::size_t>(i) * s.k + kk] = v;
        }
      }
      for (auto& v : b) v = rng.normal();
      if (variant == 1) {
        b[static_cast<std::size_t>(rng.randint(0, static_cast<int>(b.size()) - 1))] =
            rng.randint(0, 1) == 0 ? std::numeric_limits<float>::infinity()
                                   : std::numeric_limits<float>::quiet_NaN();
      }
      // C starts as a partial sum, with -0.0 in it: an all-zero row must
      // leave it untouched.
      for (auto& v : c0) v = rng.uniform() < 0.2F ? -0.0F : rng.normal();
      std::vector<float> want = c0;
      naive_gemm(a, b, want, s.n, s.k, s.m);
      for (const auto& [name, body] : bodies) {
        SCOPED_TRACE(name);
        std::vector<float> got = c0;
        body(a.data(), b.data(), got.data(), s.n, s.k, s.m);
        EXPECT_TRUE(same_up_to_nan_bits(want.data(), got.data(), want.size()));
      }
    }
  }
}

TEST(infer_gemm, AllFiniteFlagsNonFiniteAtEveryOffset) {
  // The scan has no early exit and may be vectorised, so a non-finite value
  // must be caught at every offset of a buffer longer than one vector plus a
  // tail, and the extreme finite values must not be mistaken for it.
  constexpr std::size_t kLen = 18;
  std::array<float, kLen> finite{};
  for (std::size_t i = 0; i < kLen; ++i) {
    finite[i] = static_cast<float>(i) - 7.5F;
  }
  finite[1] = std::numeric_limits<float>::max();
  finite[4] = -std::numeric_limits<float>::max();
  finite[9] = std::numeric_limits<float>::denorm_min();
  finite[13] = -0.0F;
  ASSERT_TRUE(tensor::gemm::all_finite(finite.data(), kLen));
  EXPECT_TRUE(tensor::gemm::all_finite(finite.data(), 0));

  const std::array<float, 3> specials = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity()};
  for (const float special : specials) {
    for (std::size_t at = 0; at < kLen; ++at) {
      SCOPED_TRACE(::testing::Message() << special << " at " << at);
      std::array<float, kLen> buf = finite;
      buf[at] = special;
      EXPECT_FALSE(tensor::gemm::all_finite(buf.data(), kLen));
      // A count that stops just before the special ignores it.
      EXPECT_TRUE(tensor::gemm::all_finite(buf.data(), at));
      EXPECT_FALSE(tensor::gemm::all_finite(buf.data(), at + 1));
    }
  }
}

/// The dA and dB loops ops::matmul's backward ran before it called the
/// shared GEMM: the bit-exact oracle for the products it computes now.
void reference_matmul_backward(const float* av, const float* bv,
                               const float* g, float* ga, float* gb, int n,
                               int k, int m) {
  for (long i = 0; i < n; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = bv + static_cast<std::ptrdiff_t>(kk) * m;
      const float* grow = g + static_cast<std::ptrdiff_t>(i) * m;
      float acc = 0.0F;
      for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
      ga[i * k + kk] += acc;
    }
  }
  bool g_finite = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n) * m; ++i) {
    if (!std::isfinite(g[i])) {
      g_finite = false;
      break;
    }
  }
  for (long kk = 0; kk < k; ++kk) {
    float* gbrow = gb + static_cast<std::ptrdiff_t>(kk) * m;
    for (int i = 0; i < n; ++i) {
      const float a_ik = av[static_cast<std::ptrdiff_t>(i) * k + kk];
      if (a_ik == 0.0F && g_finite) continue;
      const float* grow = g + static_cast<std::ptrdiff_t>(i) * m;
      for (int j = 0; j < m; ++j) gbrow[j] += a_ik * grow[j];
    }
  }
}

/// Normal entries with about `zero_pct` exact zeros; with `specials`, a few
/// entries become ±0, ±inf or NaN.
tensor::Tensor backward_operand(int rows, int cols, float zero_pct,
                                bool specials, util::Rng& rng) {
  constexpr std::array<float, 5> kSpecial = {
      0.0F, -0.0F, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN()};
  tensor::Tensor t({rows, cols});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform() < zero_pct ? 0.0F : rng.normal();
  }
  if (specials) {
    const int last = static_cast<int>(t.numel()) - 1;
    for (int s = 0; s < 5; ++s) {
      t[static_cast<std::size_t>(rng.randint(0, last))] =
          kSpecial[static_cast<std::size_t>(rng.randint(0, 4))];
    }
  }
  return t;
}

/// Runs the backward closure of `c` = matmul(...) with upstream gradient
/// `dc`, as Variable::backward does for that node.
void run_matmul_backward(const tensor::Variable& c, tensor::Tensor dc) {
  tensor::Node& node = *c.node();
  node.grad = std::move(dc);
  for (auto& p : node.parents) p->ensure_grad();
  node.backward(node);
}

TEST(infer_gemm, MatmulBackwardMatchesReferenceLoops) {
  struct Shape {
    int n, k, m;
  };
  // Evaluator and supernet sizes, a tiny k, and degenerate shapes.
  const std::vector<Shape> shapes = {{128, 63, 128}, {128, 48, 48},
                                     {64, 128, 256}, {256, 3, 256},
                                     {1, 1, 1},      {7, 1, 9}};
  for (const bool serial : {true, false}) {
    std::optional<runtime::SerialGuard> guard;
    if (serial) guard.emplace();
    util::Rng rng(0x9b4d);
    for (const Shape& s : shapes) {
      // Variant 0 is finite; 1-3 put specials into A, B or dC; 4 into all.
      for (int variant = 0; variant < 5; ++variant) {
        SCOPED_TRACE(::testing::Message()
                     << (serial ? "serial " : "pool ") << s.n << "x" << s.k
                     << "x" << s.m << " variant " << variant);
        const auto in = [&](int v) { return variant == v || variant == 4; };
        // A feeds two products, so the second one's dA lands on a gradient
        // that is already non-zero. ~25% of A is exact zeros, as ReLU gives.
        tensor::Variable a(backward_operand(s.n, s.k, 0.25F, in(1), rng), true);
        std::array<tensor::Variable, 2> b;
        std::array<tensor::Tensor, 2> dc;
        for (int p = 0; p < 2; ++p) {
          b[p] = tensor::Variable(
              backward_operand(s.k, s.m, 0.0F, in(2), rng), true);
          dc[p] = backward_operand(s.n, s.m, 0.1F, in(3), rng);
        }

        tensor::Tensor want_ga({s.n, s.k});
        std::array<tensor::Tensor, 2> want_gb;
        for (int p = 0; p < 2; ++p) {
          want_gb[p] = tensor::Tensor({s.k, s.m});
          reference_matmul_backward(a.value().data(), b[p].value().data(),
                                    dc[p].data(), want_ga.data(),
                                    want_gb[p].data(), s.n, s.k, s.m);
        }
        for (int p = 0; p < 2; ++p) {
          run_matmul_backward(tensor::ops::matmul(a, b[p]), dc[p]);
        }
        EXPECT_TRUE(same_up_to_nan_bits(want_ga.data(), a.grad().data(),
                                        want_ga.numel()));
        for (int p = 0; p < 2; ++p) {
          EXPECT_TRUE(same_up_to_nan_bits(want_gb[p].data(), b[p].grad().data(),
                                          want_gb[p].numel()));
        }
      }
    }
  }
}

TEST(infer_stack_rows, SingleRowBatchBitIdenticalToForwardDeterministic) {
  // The documented degenerate case: every single Service::query miss is a
  // one-row batch; it must answer exactly like a single query.
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev = make_evaluator(space, width);

  const auto rows = random_rows(1, width, 0x5eed1);
  const auto batched = ev.forward_batch(rows);
  tensor::Variable single(tensor::Tensor::from({1, width}, rows[0]));
  const auto direct = ev.forward_deterministic(single);

  EXPECT_TRUE(bit_equal(batched.metrics.value().data(),
                        direct.metrics.value().data(),
                        direct.metrics.value().numel()));
  EXPECT_TRUE(bit_equal(batched.hw_encoding.value().data(),
                        direct.hw_encoding.value().data(),
                        direct.hw_encoding.value().numel()));
}

TEST(infer_stack_rows, ValidatesAndLaysOutRowMajor) {
  EXPECT_THROW((void)evalnet::Evaluator::stack_rows({}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)evalnet::Evaluator::stack_rows({{1.0F, 2.0F}, {3.0F}}),
      std::invalid_argument);

  const tensor::Tensor t =
      evalnet::Evaluator::stack_rows({{1.0F, 2.0F}, {3.0F, 4.0F}});
  ASSERT_EQ(t.rows(), 2);
  ASSERT_EQ(t.cols(), 2);
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(0, 1), 2.0F);
  EXPECT_EQ(t.at(1, 0), 3.0F);
  EXPECT_EQ(t.at(1, 1), 4.0F);
}

/// The autograd oracle: Evaluator::forward_batch on `rows`, decoded into
/// responses here, independently of the backend's own decoder.
std::vector<serve::Response> autograd_oracle(
    evalnet::Evaluator& ev, const std::vector<std::vector<float>>& rows) {
  const auto out = ev.forward_batch(rows);
  const tensor::Tensor& metrics = out.metrics.value();
  const tensor::Tensor& hw = out.hw_encoding.value();
  const auto ranges = ev.hwgen_net().head_ranges();
  const hwgen::HwSearchSpace& space = ev.hwgen_net().space();
  std::vector<serve::Response> responses;
  for (int r = 0; r < metrics.rows(); ++r) {
    std::array<int, 4> arg{};
    for (std::size_t h = 0; h < 4; ++h) {
      for (int c = ranges[h].first; c < ranges[h].second; ++c) {
        if (hw.at(r, c) == 1.0F) arg[h] = c - ranges[h].first;
      }
    }
    serve::Response resp;
    resp.metrics.latency_ms = metrics.at(r, 0);
    resp.metrics.energy_mj = metrics.at(r, 1);
    resp.metrics.area_mm2 = metrics.at(r, 2);
    resp.config = accel::AcceleratorConfig{
        space.pe_value(arg[0]), space.pe_value(arg[1]),
        space.rf_value(arg[2]), space.dataflow_value(arg[3])};
    responses.push_back(resp);
  }
  return responses;
}

TEST(infer_backend, FusedTierBitIdenticalToAutogradTier) {
  // The backend decodes its own stacked forward; the oracle runs
  // forward_batch on a second evaluator of the same checkpoint and decodes
  // independently.
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev_oracle = make_evaluator(space, width);
  auto ev_served = make_evaluator(space, width);  // same seed -> same weights
  serve::SurrogateBackend backend(ev_served);

  const auto rows = random_rows(6, width, 0xb17);
  std::vector<serve::Request> requests;
  for (const auto& r : rows) requests.push_back(serve::Request{r});
  const auto responses = backend.query_batch(requests);
  const auto expected = autograd_oracle(ev_oracle, rows);

  ASSERT_EQ(responses.size(), expected.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].metrics.latency_ms, expected[i].metrics.latency_ms);
    EXPECT_EQ(responses[i].metrics.energy_mj, expected[i].metrics.energy_mj);
    EXPECT_EQ(responses[i].metrics.area_mm2, expected[i].metrics.area_mm2);
    EXPECT_EQ(responses[i].config, expected[i].config) << "row " << i;
  }
}

TEST(infer_backend, WireAnswersMatchAutogradOracle) {
  // The served JSON lines, byte for byte: 40 `arch` queries (the CI smoke
  // stream, repeats included) through wire::answer_line over a Service on
  // SurrogateBackend must equal response_line built from the autograd
  // oracle, with `cached` true exactly for keys seen earlier in the stream.
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev_oracle = make_evaluator(space, width);
  auto ev_served = make_evaluator(space, width);
  serve::SurrogateBackend backend(ev_served);
  serve::Service service(backend, serve::Service::Options{});

  std::set<std::vector<float>> seen;
  for (int i = 0; i < 40; ++i) {
    std::string line = "{\"id\": " + std::to_string(i) + ", \"arch\": [";
    arch::Architecture a;
    for (int j = 0; j < arch_space.num_searchable(); ++j) {
      const int op = (i + j) % arch::kNumCandidateOps;
      line += (j == 0 ? "" : ", ") + std::to_string(op);
      a.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(op)]);
    }
    line += "]}";
    const std::vector<float> enc = arch_space.encode(a);

    serve::Response expected = autograd_oracle(ev_oracle, {enc}).front();
    expected.cached = !seen.insert(enc).second;
    EXPECT_EQ(serve::wire::answer_line(line, arch_space, service),
              serve::wire::response_line(i, expected))
        << line;
  }
}

TEST(infer_backend, ConcurrentDirectCallersMatchForwardBatch) {
  // No Service and no mutex: four threads call one backend directly with
  // batches of 1 to 8 rows. A frozen, eval-mode evaluator only reads its
  // parameters, so every answer must carry the bits a single-threaded
  // forward_batch gives on a second evaluator of the same seed.
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev_oracle = make_evaluator(space, width);
  auto ev_served = make_evaluator(space, width);
  serve::SurrogateBackend backend(ev_served);

  constexpr int kRows = 40;
  const auto rows = random_rows(kRows, width, 0xc0c0);
  const auto expected = autograd_oracle(ev_oracle, rows);
  const auto same_bits = [](const serve::Response& a,
                            const serve::Response& b) {
    const auto same = [](double x, double y) {
      return std::memcmp(&x, &y, sizeof x) == 0;
    };
    return same(a.metrics.latency_ms, b.metrics.latency_ms) &&
           same(a.metrics.energy_mj, b.metrics.energy_mj) &&
           same(a.metrics.area_mm2, b.metrics.area_mm2) &&
           a.config == b.config;
  };

  constexpr int kThreads = 4;
  constexpr int kCalls = 24;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int call = 0; call < kCalls; ++call) {
        const int batch = 1 + (t + call) % 8;
        const int first = (7 * t + 5 * call) % (kRows - batch + 1);
        std::vector<serve::Request> requests;
        for (int r = first; r < first + batch; ++r) {
          requests.push_back(serve::Request{rows[static_cast<std::size_t>(r)]});
        }
        const auto answers = backend.query_batch(requests);
        if (answers.size() != requests.size()) {
          ++wrong;
          continue;
        }
        for (int i = 0; i < batch; ++i) {
          if (!same_bits(answers[static_cast<std::size_t>(i)],
                         expected[static_cast<std::size_t>(first + i)])) {
            ++wrong;
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace

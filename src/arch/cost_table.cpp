#include "arch/cost_table.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "obs/registry.h"
#include "runtime/profiler.h"
#include "runtime/thread_pool.h"

namespace dance::arch {

namespace {
/// Cost-model evaluation per config is expensive; small chunks balance well.
constexpr long kModelGrain = 8;
/// Table lookups are cheap; batch plenty of configs per chunk.
constexpr long kTableGrain = 256;

/// The one place table sums become metrics, on doubles or on vector lanes,
/// so `metrics` and the chunked scan in `optimal` produce the same bits.
template <typename T>
T latency_ms(T cycles, double clock_ghz) {
  return cycles / (clock_ghz * 1e6);
}
template <typename T>
T energy_mj(T energy_pj) {
  return energy_pj * 1e-9;
}

accel::CostMetrics to_metrics(double cycles, double energy_pj, double area,
                              double clock_ghz) {
  accel::CostMetrics m;
  m.latency_ms = latency_ms(cycles, clock_ghz);
  m.energy_mj = energy_mj(energy_pj);
  m.area_mm2 = area;
  return m;
}

// GCC vector extensions: one V2 is one SSE2 register. There is no AVX2
// body: a 4-wide build of this kernel saved about 1 µs per scan, too little
// against a served request to pay for a second body and an ISA switch.
using V2 = double __attribute__((vector_size(16)));
using M2 = long long __attribute__((vector_size(16)));

/// Positions per chunk of the scan, held as kVecs registers per row.
constexpr std::size_t kChunk = 16;
constexpr int kVecs = static_cast<int>(kChunk / 2);

/// Adds positions [0, count) of `row` to a chunk's lanes (assigns them when
/// !Add). Only the last chunk of a scan is Partial; it reads no position at
/// or past `count`, and adds 0 to those lanes.
template <bool Partial, bool Add>
[[gnu::always_inline]] inline void accumulate(V2 (&acc)[kVecs],
                                              const double* row,
                                              std::size_t count) {
  double lanes[kChunk] = {};
  if constexpr (Partial) {
    std::copy_n(row, count, lanes);
    row = lanes;
  }
#pragma GCC unroll 8
  for (int r = 0; r < kVecs; ++r) {
    V2 v;
    __builtin_memcpy(&v, row + 2 * r, sizeof(v));
    if constexpr (Add) {
      acc[r] += v;
    } else {
      acc[r] = v;
    }
  }
}

/// A chunk's costs, computed in its registers.
[[gnu::always_inline]] inline void chunk_costs(accel::Edap edap,
                                               V2 (&cost)[kVecs],
                                               const V2 (&cycles)[kVecs],
                                               const V2 (&energy)[kVecs],
                                               const V2 (&area)[kVecs],
                                               double clock_ghz,
                                               std::size_t /*count*/) {
#pragma GCC unroll 8
  for (int r = 0; r < kVecs; ++r) {
    cost[r] = edap(latency_ms(cycles[r], clock_ghz), energy_mj(energy[r]),
                   area[r]);
  }
}

/// A chunk's costs, one cost_fn call per lane below `count` (the rest 0).
inline void chunk_costs(const accel::HwCostFn& cost_fn, V2 (&cost)[kVecs],
                        const V2 (&cycles)[kVecs], const V2 (&energy)[kVecs],
                        const V2 (&area)[kVecs], double clock_ghz,
                        std::size_t count) {
  double c[kChunk];
  double e[kChunk];
  double ar[kChunk];
  __builtin_memcpy(c, cycles, sizeof(c));
  __builtin_memcpy(e, energy, sizeof(e));
  __builtin_memcpy(ar, area, sizeof(ar));
  double out[kChunk] = {};
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = cost_fn(to_metrics(c[i], e[i], ar[i], clock_ghz));
  }
  __builtin_memcpy(cost, out, sizeof(out));
}
}  // namespace

CostTable::CostTable(const ArchSpace& arch_space,
                     const hwgen::HwSearchSpace& hw_space,
                     const accel::CostModel& model)
    : arch_space_(arch_space),
      hw_space_(hw_space),
      clock_ghz_(model.tech().clock_ghz),
      slots_(arch_space.num_searchable()) {
  const std::size_t num_configs = hw_space.size();
  if (num_configs > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("CostTable: hardware space too large");
  }
  fixed_cycles_.assign(num_configs, 0.0);
  fixed_energy_.assign(num_configs, 0.0);
  area_.assign(num_configs, 0.0);
  choice_cycles_.assign(
      static_cast<std::size_t>(slots_) * kNumCandidateOps * num_configs, 0.0);
  choice_energy_.assign(choice_cycles_.size(), 0.0);

  // Pre-lower every choice once and flatten all shapes — fixed layers first,
  // then each (slot, op) segment — into one contiguous batch, so each config
  // costs exactly one layer_cost_batch call. Per-segment sums accumulate in
  // the same per-shape order as the historical per-layer loops, so the table
  // is bit-identical to the old build.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<accel::ConvShape> all_shapes(arch_space_.fixed_shapes().begin(),
                                           arch_space_.fixed_shapes().end());
  const std::size_t fixed_count = all_shapes.size();
  std::vector<Segment> segments(static_cast<std::size_t>(slots_) *
                                kNumCandidateOps);
  for (int slot = 0; slot < slots_; ++slot) {
    for (int op = 0; op < kNumCandidateOps; ++op) {
      const auto shapes = arch_space_.lower_choice(
          slot, kAllCandidateOps[static_cast<std::size_t>(op)]);
      Segment& seg =
          segments[static_cast<std::size_t>(slot) * kNumCandidateOps +
                   static_cast<std::size_t>(op)];
      seg.begin = all_shapes.size();
      all_shapes.insert(all_shapes.end(), shapes.begin(), shapes.end());
      seg.end = all_shapes.size();
    }
  }

  // Every configuration fills its own column of the tables (disjoint writes)
  // and all per-config sums accumulate inside a single lane, so the table is
  // bit-identical to a serial build at any thread count.
  DANCE_PROFILE_SCOPE("arch.cost_table.build");
  runtime::global_pool().parallel_for(
      0, static_cast<long>(num_configs), kModelGrain, [&](long lo, long hi) {
        std::vector<accel::LayerCost> costs(all_shapes.size());
        for (long i = lo; i < hi; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          const accel::AcceleratorConfig config = hw_space_.config_at(ci);
          area_[ci] = model.area_mm2(config);
          model.layer_cost_batch(config, all_shapes, costs);
          for (std::size_t f = 0; f < fixed_count; ++f) {
            fixed_cycles_[ci] += costs[f].cycles;
            fixed_energy_[ci] += costs[f].energy_pj;
          }
          for (int slot = 0; slot < slots_; ++slot) {
            for (int op = 0; op < kNumCandidateOps; ++op) {
              const Segment& seg =
                  segments[static_cast<std::size_t>(slot) * kNumCandidateOps +
                           static_cast<std::size_t>(op)];
              double cycles = 0.0;
              double energy = 0.0;
              for (std::size_t s = seg.begin; s < seg.end; ++s) {
                cycles += costs[s].cycles;
                energy += costs[s].energy_pj;
              }
              choice_cycles_[slot_offset(slot, op) + ci] = cycles;
              choice_energy_[slot_offset(slot, op) + ci] = energy;
            }
          }
        }
      });

  // Scan order: kept configs first, then the pruned ones, each ascending.
  // Every array is permuted in place through one row-sized scratch buffer.
  DANCE_PROFILE_SCOPE("arch.cost_table.prune");
  const std::vector<std::uint8_t> pruned = pruned_configs();
  order_.resize(num_configs);
  std::iota(order_.begin(), order_.end(), 0U);
  const auto kept_end = std::stable_partition(
      order_.begin(), order_.end(),
      [&pruned](std::uint32_t ci) { return pruned[ci] == 0; });
  num_kept_ = static_cast<std::size_t>(kept_end - order_.begin());
  std::vector<double> scratch(num_configs);
  const auto permute = [&](double* row) {
    std::copy(row, row + num_configs, scratch.begin());
    for (std::size_t p = 0; p < num_configs; ++p) row[p] = scratch[order_[p]];
  };
  permute(fixed_cycles_.data());
  permute(fixed_energy_.data());
  permute(area_.data());
  for (std::size_t off = 0; off < choice_cycles_.size(); off += num_configs) {
    permute(choice_cycles_.data() + off);
    permute(choice_energy_.data() + off);
  }
  position_.resize(num_configs);
  for (std::size_t p = 0; p < num_configs; ++p) {
    position_[order_[p]] = static_cast<std::uint32_t>(p);
  }

  obs::Registry::global().counter("costtable.builds").inc();
}

accel::CostMetrics CostTable::metrics(std::size_t config_index,
                                      const Architecture& a) const {
  arch_space_.validate(a);
  if (config_index >= num_configs()) {
    throw std::out_of_range("CostTable::metrics: bad config index");
  }
  return metrics_at(position_[config_index], a);
}

accel::CostMetrics CostTable::metrics_at(std::size_t position,
                                         const Architecture& a) const {
  double cycles = fixed_cycles_[position];
  double energy = fixed_energy_[position];
  for (int slot = 0; slot < slots_; ++slot) {
    const int op = static_cast<int>(a[static_cast<std::size_t>(slot)]);
    cycles += choice_cycles_[slot_offset(slot, op) + position];
    energy += choice_energy_[slot_offset(slot, op) + position];
  }
  return to_metrics(cycles, energy, area_[position], clock_ghz_);
}

std::vector<accel::CostMetrics> CostTable::evaluate_all(
    const Architecture& a) const {
  arch_space_.validate(a);
  std::vector<accel::CostMetrics> out(num_configs());
  runtime::global_pool().parallel_for(
      0, static_cast<long>(num_configs()), kTableGrain, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          out[ci] = metrics_at(position_[ci], a);
        }
      });
  return out;
}

hwgen::HwSearchResult CostTable::optimal(
    const Architecture& a, const accel::HwCostFn& cost_fn) const {
  DANCE_PROFILE_SCOPE("arch.cost_table.optimal");
  return scan(a, cost_fn);
}

hwgen::HwSearchResult CostTable::optimal(const Architecture& a,
                                         accel::Edap cost) const {
  DANCE_PROFILE_SCOPE("arch.cost_table.optimal");
  return scan(a, cost);
}

template <typename Cost>
hwgen::HwSearchResult CostTable::scan(const Architecture& a,
                                      const Cost& cost) const {
  arch_space_.validate(a);
  // One pass over the kept prefix, which holds the first minimum of any
  // non-decreasing cost (docs/cost_table.md, "Scan order"), 16 positions
  // at a time in registers. Per position the sums run in the same order as
  // metrics(), so the bits match.
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  const auto chunk = [&](auto partial, std::size_t p, std::size_t count) {
    constexpr bool kPartial = decltype(partial)::value;
    V2 cycles[kVecs];
    V2 energy[kVecs];
    accumulate<kPartial, false>(cycles, fixed_cycles_.data() + p, count);
    accumulate<kPartial, false>(energy, fixed_energy_.data() + p, count);
    for (int slot = 0; slot < slots_; ++slot) {
      const int op = static_cast<int>(a[static_cast<std::size_t>(slot)]);
      const std::size_t off = slot_offset(slot, op) + p;
      accumulate<kPartial, true>(cycles, choice_cycles_.data() + off, count);
      accumulate<kPartial, true>(energy, choice_energy_.data() + off, count);
    }
    V2 area[kVecs];
    accumulate<kPartial, false>(area, area_.data() + p, count);
    V2 costs[kVecs];
    chunk_costs(cost, costs, cycles, energy, area, clock_ghz_, count);
    // Strict-< first minimum. The vector compare only screens the chunk;
    // a chunk that holds a lower cost is walked lane by lane, in order.
    const V2 bound = {best_cost, best_cost};
    M2 below = costs[0] < bound;
#pragma GCC unroll 8
    for (int r = 1; r < kVecs; ++r) below |= costs[r] < bound;
    if ((below[0] | below[1]) == 0) return;
    double lanes[kChunk];
    __builtin_memcpy(lanes, costs, sizeof(lanes));
    for (std::size_t i = 0; i < count; ++i) {
      if (lanes[i] < best_cost) {
        best_cost = lanes[i];
        best = p + i;
      }
    }
  };
  std::size_t p = 0;
  for (; p + kChunk <= num_kept_; p += kChunk) {
    chunk(std::false_type{}, p, kChunk);
  }
  if (p < num_kept_) chunk(std::true_type{}, p, num_kept_ - p);
  return hwgen::HwSearchResult{hw_space_.config_at(order_[best]),
                               metrics_at(best, a), best_cost};
}

std::vector<std::uint8_t> CostTable::pruned_configs() const {
  const std::size_t n = num_configs();
  std::vector<const double*> rows{fixed_cycles_.data(), fixed_energy_.data(),
                                  area_.data()};
  const std::size_t choice_rows =
      static_cast<std::size_t>(slots_) * kNumCandidateOps;
  for (std::size_t r = 0; r < choice_rows; ++r) {
    rows.push_back(choice_cycles_.data() + r * n);
    rows.push_back(choice_energy_.data() + r * n);
  }
  // {stride, count} of each axis of HwSearchSpace's flat index:
  // ((pe_x * P + pe_y) * R + rf) * D + dataflow.
  const auto rf = static_cast<std::size_t>(hw_space_.num_rf_choices());
  const auto pe = static_cast<std::size_t>(hw_space_.num_pe_choices());
  const auto df = static_cast<std::size_t>(hw_space_.num_dataflow_choices());
  const std::array<std::array<std::size_t, 2>, 4> axes{
      {{1, df}, {df, rf}, {df * rf, pe}, {df * rf * pe, pe}}};

  std::vector<std::uint8_t> pruned(n, 0);
  runtime::global_pool().parallel_for(
      0, static_cast<long>(n), kTableGrain, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          bool dominated = false;
          for (const auto& [stride, count] : axes) {
            const std::size_t steps = (ci / stride) % count;
            for (std::size_t d = 1; d <= steps && !dominated; ++d) {
              const std::size_t cj = ci - d * stride;
              dominated = true;
              for (const double* row : rows) {
                if (!(row[cj] <= row[ci])) {
                  dominated = false;
                  break;
                }
              }
            }
            if (dominated) break;
          }
          pruned[ci] = dominated ? 1 : 0;
        }
      });
  return pruned;
}

}  // namespace dance::arch

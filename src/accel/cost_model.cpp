#include "accel/cost_model.h"

#include <algorithm>
#include <stdexcept>


namespace dance::accel {

std::string to_string(Dataflow df) {
  switch (df) {
    case Dataflow::kWeightStationary: return "WS";
    case Dataflow::kOutputStationary: return "OS";
    case Dataflow::kRowStationary: return "RS";
  }
  return "??";
}

std::string AcceleratorConfig::to_string() const {
  return "Accel(PEx=" + std::to_string(pe_x) + " PEy=" + std::to_string(pe_y) +
         " RF=" + std::to_string(rf_size) + " DF=" + accel::to_string(dataflow) +
         ")";
}

namespace {

long cdiv(long a, long b) { return (a + b - 1) / b; }

void validate(const AcceleratorConfig& c, const ConvShape& s) {
  if (c.pe_x <= 0 || c.pe_y <= 0 || c.rf_size <= 0) {
    throw std::invalid_argument("CostModel: non-positive accelerator parameter");
  }
  if (!s.valid()) {
    throw std::invalid_argument("CostModel: invalid layer shape " + s.to_string());
  }
}

/// Words of RF usable for operand staging (a couple of words are reserved
/// for the in-flight operand and partial sum registers).
long rf_avail(const AcceleratorConfig& c) { return std::max(1, c.rf_size - 2); }

}  // namespace

CostModel::CostModel(const TechnologyParams& tech) : tech_(tech) {}

// --- Weight stationary -----------------------------------------------------
// Output channels K map to the X dimension of the array and input channels
// to the Y dimension; each PE pins its filter's RxS weights in the RF and
// output pixels are streamed through. This is why PE_X "favours the layers
// with more channels" (§4.1) and why depthwise convolutions (c_per_group==1)
// strand all but one row of a WS array — the separable-convolution-on-TPU
// effect the introduction describes.
CostModel::Mapping CostModel::map_weight_stationary(const AcceleratorConfig& c,
                                                    const ConvShape& s) const {
  const long tiles_k = cdiv(s.k, c.pe_x);
  const long tiles_c = cdiv(s.c_per_group(), c.pe_y);
  const long pixels = static_cast<long>(s.n) * s.out_h() * s.out_w();
  const long window = static_cast<long>(s.r) * s.s;
  // If the RF cannot hold a full filter, the pass is split into segments and
  // the activations are re-streamed once per segment.
  const long segments = cdiv(window, rf_avail(c));

  Mapping m;
  // tiles_k spans all K output channels (across every group), so no extra
  // group factor is needed.
  m.compute_cycles = static_cast<double>(tiles_k) * tiles_c *
                     static_cast<double>(pixels) * static_cast<double>(window);
  const double w_vol = static_cast<double>(s.weight_volume());
  const double i_vol = static_cast<double>(s.input_volume());
  const double o_vol = static_cast<double>(s.output_volume());
  const double weights_gb = w_vol * static_cast<double>(segments);
  const double inputs_gb =
      i_vol * static_cast<double>(tiles_k) * static_cast<double>(segments);
  // Partial sums are read-modify-written once per extra input-channel tile.
  const double outputs_gb = o_vol * static_cast<double>(2 * tiles_c - 1);
  m.gb_words = weights_gb + inputs_gb + outputs_gb;
  m.dram_words = w_vol + i_vol + o_vol;
  m.rf_accesses = 3.0 * static_cast<double>(s.macs());
  return m;
}

// --- Output stationary -----------------------------------------------------
// Output pixels map onto the array (OW on X, OH on Y) and each PE
// accumulates its pixel's partial sum locally while weights are broadcast.
// Larger feature maps fill the array better; the RF caches filter rows of
// the input window, so a bigger RF converts into input-traffic reuse.
CostModel::Mapping CostModel::map_output_stationary(const AcceleratorConfig& c,
                                                    const ConvShape& s) const {
  const long tiles_x = cdiv(s.out_w(), c.pe_x);
  const long tiles_y = cdiv(s.out_h(), c.pe_y);
  const long passes = tiles_x * tiles_y * s.n * s.k;
  const long reduction = static_cast<long>(s.c_per_group()) * s.r * s.s;

  Mapping m;
  m.compute_cycles = static_cast<double>(passes) * static_cast<double>(reduction);
  const double w_vol = static_cast<double>(s.weight_volume());
  const double i_vol = static_cast<double>(s.input_volume());
  const double o_vol = static_cast<double>(s.output_volume());
  // Weights are re-broadcast for every spatial tile pass.
  const double weights_gb =
      w_vol * static_cast<double>(tiles_x) * static_cast<double>(tiles_y) * s.n;
  // The RF caches up to rf_avail/S filter rows of the sliding input window,
  // giving up to R-fold vertical reuse of the input fetches.
  const double row_reuse =
      std::clamp(static_cast<double>(rf_avail(c)) / static_cast<double>(s.s),
                 1.0, static_cast<double>(s.r));
  const double inputs_gb = i_vol * static_cast<double>(s.k) /
                           static_cast<double>(s.groups) *
                           static_cast<double>(s.r) / row_reuse;
  const double outputs_gb = o_vol;  // psums never leave the PE until done
  m.gb_words = weights_gb + inputs_gb + outputs_gb;
  m.dram_words = w_vol + i_vol + o_vol;
  m.rf_accesses = 3.0 * static_cast<double>(s.macs());
  return m;
}

// --- Row stationary ---------------------------------------------------------
// Eyeriss mapping: PE rows hold filter rows (R on Y, replicated across
// output channels when PE_Y > R), PE columns hold output columns. Each PE
// runs a 1-D row convolution (S MACs per output). The RF holds one filter
// row + one input row window + partial sums; spare RF capacity batches
// multiple input channels per pass, which divides the partial-sum
// read-modify-write traffic — the reason Eyeriss uses big register files.
CostModel::Mapping CostModel::map_row_stationary(const AcceleratorConfig& c,
                                                 const ConvShape& s) const {
  const long fold_r = cdiv(s.r, c.pe_y);
  const long rep_k = std::max(1L, static_cast<long>(c.pe_y) / s.r);
  const long tiles_k = cdiv(s.k, rep_k);
  const long tiles_x = cdiv(s.out_w(), c.pe_x);
  const long row_words = 2L * s.s + 1;  // filter row + input window + psum
  const long chan_batch =
      std::max(1L, rf_avail(c) / row_words);  // channels resident per PE
  const long cg = s.c_per_group();

  Mapping m;
  m.compute_cycles = static_cast<double>(tiles_k) * tiles_x *
                     static_cast<double>(s.n) * static_cast<double>(cg) *
                     static_cast<double>(s.out_h()) * static_cast<double>(s.s) *
                     static_cast<double>(fold_r);
  const double w_vol = static_cast<double>(s.weight_volume());
  const double i_vol = static_cast<double>(s.input_volume());
  const double o_vol = static_cast<double>(s.output_volume());
  const double weights_gb =
      w_vol * static_cast<double>(tiles_x) * std::max(1, s.n);
  const double inputs_gb = i_vol * static_cast<double>(tiles_k);
  const double outputs_gb =
      o_vol * static_cast<double>(2 * cdiv(cg, chan_batch) - 1);
  m.gb_words = weights_gb + inputs_gb + outputs_gb;
  m.dram_words = w_vol + i_vol + o_vol;
  m.rf_accesses = 3.0 * static_cast<double>(s.macs());
  return m;
}

CostModel::ConfigCoeffs CostModel::coeffs_for(
    const AcceleratorConfig& c) const {
  ConfigCoeffs co;
  co.rf_access_pj =
      tech_.rf_energy_base_pj + tech_.rf_energy_per_word_pj * c.rf_size;
  co.avg_hops = 0.5 * (c.pe_x + c.pe_y);
  return co;
}

CostBreakdown CostModel::explain_with(const ConfigCoeffs& co,
                                      const AcceleratorConfig& config,
                                      const ConvShape& shape) const {
  Mapping m;
  switch (config.dataflow) {
    case Dataflow::kWeightStationary:
      m = map_weight_stationary(config, shape);
      break;
    case Dataflow::kOutputStationary:
      m = map_output_stationary(config, shape);
      break;
    case Dataflow::kRowStationary:
      m = map_row_stationary(config, shape);
      break;
  }

  CostBreakdown b;
  // Roofline: the layer is bound by compute, the global buffer port, or DRAM.
  b.compute_cycles = m.compute_cycles;
  b.gb_cycles = m.gb_words / tech_.gb_bandwidth;
  b.dram_cycles = m.dram_words / tech_.dram_bandwidth;
  b.gb_words = m.gb_words;
  b.dram_words = m.dram_words;
  b.rf_accesses = m.rf_accesses;

  const double static_pj_per_cycle_per_pe = 0.02;
  b.mac_pj = static_cast<double>(shape.macs()) * tech_.mac_energy_pj;
  b.rf_pj = m.rf_accesses * co.rf_access_pj;
  b.gb_pj = m.gb_words * tech_.gb_energy_pj;
  b.dram_pj = m.dram_words * tech_.dram_energy_pj;
  b.noc_pj = m.gb_words * co.avg_hops * tech_.noc_energy_per_hop_pj;
  b.static_pj =
      b.total_cycles() * config.num_pes() * static_pj_per_cycle_per_pe;
  return b;
}

CostBreakdown CostModel::explain(const AcceleratorConfig& config,
                                 const ConvShape& shape) const {
  validate(config, shape);
  return explain_with(coeffs_for(config), config, shape);
}

LayerCost CostModel::layer_cost(const AcceleratorConfig& config,
                                const ConvShape& shape) const {
  const CostBreakdown b = explain(config, shape);
  return LayerCost{b.total_cycles(), b.total_energy_pj()};
}

void CostModel::layer_cost_batch(const AcceleratorConfig& config,
                                 std::span<const ConvShape> shapes,
                                 std::span<LayerCost> out) const {
  if (out.size() < shapes.size()) {
    throw std::invalid_argument("CostModel::layer_cost_batch: out too small");
  }
  // The per-config coefficients are hoisted out of the loop; explain_with
  // evaluates the exact same expressions as the per-layer path, so
  // batch results are bit-identical to layer_cost.
  const ConfigCoeffs co = coeffs_for(config);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    validate(config, shapes[i]);
    const CostBreakdown b = explain_with(co, config, shapes[i]);
    out[i] = LayerCost{b.total_cycles(), b.total_energy_pj()};
  }
}

double CostModel::area_mm2(const AcceleratorConfig& config) const {
  const double pe_area = tech_.mac_area_mm2 + tech_.pe_control_area_mm2 +
                         tech_.rf_area_per_word_mm2 * config.rf_size;
  return config.num_pes() * (pe_area + tech_.noc_area_per_pe_mm2) +
         tech_.gb_area_mm2;
}

CostMetrics CostModel::network_cost(const AcceleratorConfig& config,
                                    std::span<const ConvShape> layers) const {
  double cycles = 0.0;
  double energy_pj = 0.0;
  // Route through the batched entry point in fixed-size chunks: no heap
  // allocation on this hot path (exhaustive search calls it ~14k times per
  // run), while still hoisting the per-config coefficients.
  LayerCost buf[32];
  for (std::size_t off = 0; off < layers.size(); off += std::size(buf)) {
    const std::size_t n = std::min(std::size(buf), layers.size() - off);
    layer_cost_batch(config, layers.subspan(off, n), {buf, n});
    for (std::size_t i = 0; i < n; ++i) {
      cycles += buf[i].cycles;
      energy_pj += buf[i].energy_pj;
    }
  }
  CostMetrics m;
  m.latency_ms = cycles / (tech_.clock_ghz * 1e6);
  m.energy_mj = energy_pj * 1e-9;
  m.area_mm2 = area_mm2(config);
  return m;
}

}  // namespace dance::accel

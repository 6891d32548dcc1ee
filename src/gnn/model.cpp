#include "gnn/model.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "baselines/dgl_fp32.hpp"
#include "obs/trace.hpp"

namespace qgtc::gnn {

namespace {

/// Planes required to represent non-negative value `v` (>= 1).
int bits_needed(i32 v) {
  return v <= 0 ? 1 : 32 - std::countl_zero(static_cast<u32>(v));
}

i32 max_value(const MatrixI32& m) {
  i32 mx = 0;
  for (i64 i = 0; i < m.size(); ++i) mx = std::max(mx, m.data()[i]);
  return mx;
}

/// Kernel options every stage of a forward pass shares: the §4.3 jump flag
/// from the config, and the wrapping accumulator above 8-bit operands.
BmmOptions stage_options(const GnnConfig& cfg) {
  BmmOptions opt;
  opt.zero_tile_jump = cfg.zero_tile_jump;
  opt.allow_overflow = (cfg.feat_bits > 8 || cfg.weight_bits > 8);
  return opt;
}

/// The update kernel for an `a_bits` x `w_bits` stage: the code dot wherever
/// it is exact (it beats the tile sweep at every plane-pair count; DESIGN.md,
/// "Update kernels").
ReuseMode update_kernel(int a_bits, int w_bits, const BmmOptions& opt) {
  return code_dot_applies(a_bits, w_bits, opt) ? ReuseMode::kCodeDot
                                               : ReuseMode::kCrossTile;
}

/// The stage plan's epilogue, in kernel form (fused to-bit paths).
FusedEpilogue epi_of(const EpiloguePlan& p) {
  FusedEpilogue e;
  e.act = p.act;
  e.rshift = p.rshift;
  return e;
}

/// The stage plan's epilogue, in substrate form (unfused fallback).
tcsim::EpilogueSpec spec_of(const EpiloguePlan& p) {
  return tcsim::EpilogueSpec{p.act, p.rshift,
                             static_cast<i32>((u32{1} << p.out_bits) - 1)};
}

/// Standalone requantization of an int32 activation matrix, in place,
/// through the one shared epilogue definition — bit-identical to what the
/// fused flush applies tile-by-tile.
void requant_inplace(MatrixI32& m, const EpiloguePlan& p) {
  const tcsim::EpilogueSpec spec = spec_of(p);
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = tcsim::apply_epilogue(m.data()[i], spec);
  }
}

}  // namespace

QgtcModel QgtcModel::create(const GnnConfig& cfg, u64 seed) {
  return from_weights(cfg, init_weights(cfg, seed));
}

QgtcModel QgtcModel::from_weights(const GnnConfig& cfg,
                                  std::vector<LayerWeights> weights) {
  QGTC_CHECK(static_cast<int>(weights.size()) == cfg.num_layers,
             "weight count does not match layer count");
  QgtcModel m;
  m.cfg_ = cfg;
  m.fp_weights_ = std::move(weights);
  m.quantize_weights();
  m.build_plan();
  return m;
}

const EpiloguePlan& QgtcModel::plan_of(const Stage& s) const {
  const auto& plans = s.kind == Stage::kAgg   ? agg_plan_
                      : s.kind == Stage::kUpd ? upd_plan_
                                              : upd2_plan_;
  return plans[static_cast<std::size_t>(s.layer)];
}

EpiloguePlan& QgtcModel::plan_of(const Stage& s) {
  return const_cast<EpiloguePlan&>(std::as_const(*this).plan_of(s));
}

StageWeight QgtcModel::weight_of(const Stage& s) const {
  QGTC_CHECK(s.kind != Stage::kAgg, "aggregation stages have no weights");
  const auto l = static_cast<std::size_t>(s.layer);
  return s.kind == Stage::kUpd ? StageWeight(w_planes_[l], &w_codes_[l])
                               : StageWeight(w2_planes_[l], &w2_codes_[l]);
}

void QgtcModel::build_plan() {
  const int n = cfg_.num_layers;
  agg_plan_.assign(static_cast<std::size_t>(n), {});
  upd_plan_.assign(static_cast<std::size_t>(n), {});
  upd2_plan_.assign(static_cast<std::size_t>(n), {});
  const bool gcn = cfg_.kind == ModelKind::kClusterGCN;
  stages_.clear();
  for (int l = 0; l < n; ++l) {
    if (gcn) {
      stages_.push_back({Stage::kAgg, l});
      stages_.push_back({Stage::kUpd, l});
    } else {
      stages_.push_back({Stage::kUpd, l});
      if (cfg_.gin_mlp) stages_.push_back({Stage::kUpd2, l});
      stages_.push_back({Stage::kAgg, l});
    }
  }
  // Every stage consumes codes of at most feat_bits bits (calibration only
  // ever narrows a stage's planes), so the kernels picked here are final.
  const BmmOptions opt = stage_options(cfg_);
  ReuseMode agg_kernel = cfg_.reuse;
  if (agg_kernel == ReuseMode::kRowGather &&
      !row_gather_applies(cfg_.feat_bits, opt)) {
    agg_kernel = ReuseMode::kCrossTile;
  }
  for (int l = 0; l < n; ++l) {
    const bool last = (l + 1 == n);
    EpiloguePlan& ap = agg_plan_[static_cast<std::size_t>(l)];
    EpiloguePlan& up = upd_plan_[static_cast<std::size_t>(l)];
    EpiloguePlan& up2 = upd2_plan_[static_cast<std::size_t>(l)];
    ap.fused = up.fused = up2.fused = cfg_.fused_epilogue;
    ap.out_bits = up.out_bits = up2.out_bits = cfg_.feat_bits;
    ap.kernel = agg_kernel;
    up.kernel = update_kernel(cfg_.feat_bits,
                              w_planes_[static_cast<std::size_t>(l)].bits(), opt);
    if (cfg_.gin_mlp) {
      up2.kernel = update_kernel(
          cfg_.feat_bits, w2_planes_[static_cast<std::size_t>(l)].bits(), opt);
    }
    // Aggregation requantizes without an activation (the nonlinearity sits on
    // the update stage, as in the paper's GCN/GIN layer definitions). The
    // update stage that feeds the final logits stays linear.
    ap.act = tcsim::Activation::kIdentity;
    if (gcn) {
      up.act = last ? tcsim::Activation::kIdentity : cfg_.activation;
    } else if (cfg_.gin_mlp) {
      up.act = cfg_.activation;  // between the two MLP stages, every layer
      up2.act = last ? tcsim::Activation::kIdentity : cfg_.activation;
    } else {
      up.act = last ? tcsim::Activation::kIdentity : cfg_.activation;
    }
  }
  // Each stage hands its output over in the form its consumer reads.
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    EpiloguePlan& p = plan_of(stages_[i]);
    if (i + 1 == stages_.size()) {
      p.out_form = StageOutput::kInt;
    } else if (p.fused && is_code_kernel(plan_of(stages_[i + 1]).kernel)) {
      p.out_form = StageOutput::kCodes;
    } else {
      p.out_form = StageOutput::kPlanes;
    }
  }
}

int QgtcModel::fused_stage_count() const {
  // Every stage but the logits stage requantizes.
  return cfg_.fused_epilogue ? static_cast<int>(stages_.size()) - 1 : 0;
}

void QgtcModel::quantize_weights() {
  w_qparams_.clear();
  w_planes_.clear();
  w2_planes_.clear();
  w_codes_.clear();
  w2_codes_.clear();
  // The code dot reads W as CodePanels; packing them here, once per layer,
  // keeps the per-call pack out of every forward.
  const auto pack = [](const StackedBitTensor& w) {
    return w.bits() <= 8 ? PackedCodes::pack(w) : PackedCodes{};
  };
  for (const LayerWeights& lw : fp_weights_) {
    // Weights are quantized once and cached as packed planes (§3.2: W is
    // reused across every subgraph of a layer, so decomposition is
    // pre-computed). With per_layer_bits the cache keeps only the planes the
    // layer's actual code range occupies — always lossless, since the codes
    // are fixed at quantization time.
    const QuantParams qp = quant_params_from_data(lw.w, cfg_.weight_bits);
    w_qparams_.push_back(qp);
    const MatrixI32 q = quantize_matrix(lw.w, qp);
    const int wb = cfg_.per_layer_bits
                       ? std::clamp(bits_needed(max_value(q)), 1, cfg_.weight_bits)
                       : cfg_.weight_bits;
    w_planes_.push_back(StackedBitTensor::decompose(
        q, wb, BitLayout::kColMajorK, PadPolicy::kTile8));
    w_codes_.push_back(pack(w_planes_.back()));
    if (cfg_.gin_mlp) {
      QGTC_CHECK(!lw.w2.empty(), "gin_mlp requires a second weight matrix");
      const QuantParams qp2 = quant_params_from_data(lw.w2, cfg_.weight_bits);
      const MatrixI32 q2 = quantize_matrix(lw.w2, qp2);
      const int wb2 =
          cfg_.per_layer_bits
              ? std::clamp(bits_needed(max_value(q2)), 1, cfg_.weight_bits)
              : cfg_.weight_bits;
      w2_planes_.push_back(StackedBitTensor::decompose(
          q2, wb2, BitLayout::kColMajorK, PadPolicy::kTile8));
      w2_codes_.push_back(pack(w2_planes_.back()));
    }
  }
}

template <typename Adj>
void QgtcModel::calibrate_impl(const Adj& adj, const MatrixF& x) {
  const int s = cfg_.feat_bits;
  const BmmOptions opt = stage_options(cfg_);

  const QuantParams xqp = quant_params_from_data(x, s);
  MatrixI32 xq = quantize_matrix(x, xqp);
  int cur_bits = s;

  // Completes one stage plan from the raw accumulators: derive the right
  // shift from the observed maximum, requantize `m` in place through the
  // shared epilogue, then (per_layer_bits) narrow the stage's plane count to
  // what the requantized range occupies. The narrowing is exact on the
  // calibration batch — the dropped high planes are all-zero here — and a
  // clamp on any batch whose range exceeds it.
  const auto requant_stage = [&](MatrixI32& m, EpiloguePlan& plan) {
    plan.rshift = calibrate_rshift(max_value(m), s);
    plan.out_bits = s;
    requant_inplace(m, plan);
    if (cfg_.per_layer_bits) {
      plan.out_bits = std::clamp(bits_needed(max_value(m)), 1, s);
    }
  };

  // Each stage runs unfused over planes decomposed from the previous stage's
  // requantized output, in its operand layout: an aggregation consumes X on
  // the B side (kColMajorK), an update on the A side (kRowMajorK).
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& st = stages_[i];
    EpiloguePlan& plan = plan_of(st);
    MatrixI32 acc;
    if (st.kind == Stage::kAgg) {
      const auto xp = StackedBitTensor::decompose(
          xq, cur_bits, BitLayout::kColMajorK, PadPolicy::kTile8);
      acc = aggregate_1bit(adj, xp, plan.kernel, opt);
    } else {
      const auto xp = StackedBitTensor::decompose(
          xq, cur_bits, BitLayout::kRowMajorK, PadPolicy::kTile8);
      acc = bitmm_fused_int(xp, weight_of(st), {}, opt, plan.kernel);
    }
    if (i + 1 == stages_.size()) break;  // the logits stage
    requant_stage(acc, plan);
    cur_bits = plan.out_bits;
    xq = std::move(acc);
  }
  calibrated_ = true;
}

void QgtcModel::calibrate(const BitMatrix& adj, const MatrixF& x) {
  calibrate_impl(adj, x);
}

void QgtcModel::calibrate(const TileSparseBitMatrix& adj, const MatrixF& x) {
  calibrate_impl(adj, x);
}

StackedBitTensor QgtcModel::prepare_input(const MatrixF& x) const {
  const QuantParams xqp = quant_params_from_data(x, cfg_.feat_bits);
  const MatrixI32 xq = quantize_matrix(x, xqp);
  const BitLayout layout = cfg_.kind == ModelKind::kClusterGCN
                               ? BitLayout::kColMajorK
                               : BitLayout::kRowMajorK;
  return StackedBitTensor::decompose(xq, cfg_.feat_bits, layout,
                                     PadPolicy::kTile8);
}

MatrixI32 QgtcModel::forward_quantized(const BitMatrix& adj, const MatrixF& x,
                                       ForwardStats* stats,
                                       const tcsim::ExecutionContext* ctx) const {
  return forward_prepared(adj, nullptr, prepare_input(x), stats, ctx);
}

template <typename Adj>
MatrixI32 QgtcModel::forward_impl(const Adj& adj, const TileMap* tile_map,
                                  const StackedBitTensor& x_planes,
                                  ForwardStats* stats,
                                  const tcsim::ExecutionContext* ctx) const {
  // `opt` drives the update-side MMs (activations x weights); the cached
  // adjacency flag map belongs only to the aggregation-side options — a
  // single-plane (1-bit) activation operand would otherwise be jumped with
  // the adjacency's map, whose tile grid it does not share.
  BmmOptions opt = stage_options(cfg_);
  opt.ctx = ctx;
  BmmOptions agg_opt = opt;
  agg_opt.tile_map = tile_map;

  const tcsim::ExecutionContext& exec = resolve_ctx(opt);
  tcsim::Counters before;
  if (stats != nullptr) before = exec.counters();

  const i64 nodes = adj.rows();
  tcsim::Workspace& ws = exec.workspace();

  // Every row gather of the pass reads one neighbour list of `adj`,
  // expanded here once instead of once per layer.
  NeighbourList neighbours;
  if (std::any_of(stages_.begin(), stages_.end(), [&](const Stage& s) {
        return s.kind == Stage::kAgg &&
               plan_of(s).kernel == ReuseMode::kRowGather;
      })) {
    QGTC_SPAN("gnn", "expand_neighbours", {{"rows", nodes}});
    neighbours = expand_neighbours(adj, agg_opt);
    agg_opt.neighbours = &neighbours;
  }

  // `cur` is the activation between stages, in the form the producing
  // stage's plan chose: planes, or a code matrix for a code-kernel consumer.
  // A fused stage requantizes inside its kernel's drain (§4.5); an unfused
  // one stages through an arena int32 matrix (slot per stage kind, reused
  // across layers and batches) and the same epilogue applied standalone —
  // the plan guarantees identical planes and tile schedules. Outputs
  // ping-pong between two holders of each form (and two workspace code
  // slots), so no stage overwrites its own input.
  StageInput cur = x_planes;
  StackedBitTensor planes[2];
  CodeMatrix codes[2];
  MatrixI32 logits;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& st = stages_[i];
    const EpiloguePlan& p = plan_of(st);
    const bool agg = st.kind == Stage::kAgg;
    const std::optional<StageWeight> w =
        agg ? std::nullopt : std::optional<StageWeight>(weight_of(st));
    const BmmOptions& o = agg ? agg_opt : opt;
    const std::size_t slot = i % 2;
    const i64 cols = agg ? cur.cols() : w->cols();
    QGTC_SPAN("gnn", agg ? "aggregate" : "update",
              {{"stage", static_cast<i64>(i)},
               {"kernel", static_cast<i64>(p.kernel)},
               {"cols", cols}});
    if (p.out_form == StageOutput::kInt) {
      logits = agg ? aggregate_1bit(adj, cur, p.kernel, o)
                   : bitmm_fused_int(cur, *w, {}, o, p.kernel);
      break;
    }
    if (p.out_form == StageOutput::kCodes) {
      codes[slot] = CodeMatrix::over(
          ws.code_activation(static_cast<int>(slot),
                             CodeMatrix::bytes_for(nodes, cols)),
          nodes, cols, p.out_bits);
      if (agg) {
        aggregate_fused_codes(adj, cur, codes[slot], epi_of(p), o, p.kernel);
      } else {
        bitmm_fused_codes(cur, *w, codes[slot], epi_of(p), o, p.kernel);
      }
      cur = codes[slot];
      continue;
    }
    // Planes in the layout of the consumer's operand: an aggregation reads
    // X on the B side (kColMajorK), an update reads A (kRowMajorK).
    const BitLayout layout = stages_[i + 1].kind == Stage::kAgg
                                 ? BitLayout::kColMajorK
                                 : BitLayout::kRowMajorK;
    if (p.fused) {
      planes[slot] =
          agg ? aggregate_fused_bit(adj, cur, p.out_bits, epi_of(p), o,
                                    PadPolicy::kTile8, p.kernel)
              : bitmm_fused_bit(cur, *w, p.out_bits, epi_of(p), o,
                                PadPolicy::kTile8, layout, p.kernel);
    } else {
      MatrixI32& m = ws.int32_scratch(static_cast<int>(st.kind), nodes, cols);
      if (agg) {
        aggregate_1bit_into(adj, cur, p.kernel, m, o);
      } else {
        bitmm_fused_int_into(cur, *w, m, {}, o, p.kernel);
      }
      requant_inplace(m, p);
      planes[slot] =
          StackedBitTensor::decompose(m, p.out_bits, layout, PadPolicy::kTile8);
    }
    cur = planes[slot];
  }

  if (stats != nullptr) {
    const tcsim::Counters after = exec.counters();
    stats->tiles_jumped += static_cast<i64>(after.tiles_jumped - before.tiles_jumped);
    stats->bmma_ops += static_cast<i64>(after.bmma_ops - before.bmma_ops);
    stats->int32_bytes_avoided += static_cast<i64>(after.int32_bytes_avoided -
                                                   before.int32_bytes_avoided);
    stats->gather_edges +=
        static_cast<i64>(after.gather_edges - before.gather_edges);
    stats->code_macs += static_cast<i64>(after.code_macs - before.code_macs);
  }
  return logits;
}

MatrixI32 QgtcModel::forward_prepared(const BitMatrix& adj,
                                      const TileMap* tile_map,
                                      const StackedBitTensor& x_planes,
                                      ForwardStats* stats,
                                      const tcsim::ExecutionContext* ctx) const {
  return forward_impl(adj, tile_map, x_planes, stats, ctx);
}

MatrixI32 QgtcModel::forward_prepared(const TileSparseBitMatrix& adj,
                                      const StackedBitTensor& x_planes,
                                      ForwardStats* stats,
                                      const tcsim::ExecutionContext* ctx) const {
  return forward_impl(adj, /*tile_map=*/nullptr, x_planes, stats, ctx);
}

MatrixF QgtcModel::forward_fp32(const CsrGraph& local, const MatrixF& x) const {
  using baselines::gemm_f32;
  using baselines::spmm_csr;
  // fp32 mirror of the configured activation. relu/identity are exact
  // counterparts of the quantized epilogue; relu6/hardswish use the same
  // quantized-domain constants and are reference-only approximations.
  const auto act_inplace = [&](MatrixF& m) {
    switch (cfg_.activation) {
      case tcsim::Activation::kIdentity:
        break;
      case tcsim::Activation::kRelu:
        baselines::relu_inplace(m);
        break;
      case tcsim::Activation::kRelu6:
        for (i64 i = 0; i < m.size(); ++i) {
          m.data()[i] = std::clamp(m.data()[i], 0.0f, 6.0f);
        }
        break;
      case tcsim::Activation::kHardswish:
        for (i64 i = 0; i < m.size(); ++i) {
          const float v = m.data()[i];
          m.data()[i] = v * std::clamp(v + 3.0f, 0.0f, 6.0f) / 6.0f;
        }
        break;
    }
  };
  MatrixF cur = x;
  const bool gcn = cfg_.kind == ModelKind::kClusterGCN;
  for (int l = 0; l < cfg_.num_layers; ++l) {
    const bool last = (l + 1 == cfg_.num_layers);
    if (gcn) {
      MatrixF agg = spmm_csr(local, cur, /*add_self=*/true);
      cur = gemm_f32(agg, fp_weights_[static_cast<std::size_t>(l)].w);
      if (!last) act_inplace(cur);
    } else {
      MatrixF upd = gemm_f32(cur, fp_weights_[static_cast<std::size_t>(l)].w);
      if (cfg_.gin_mlp) {
        act_inplace(upd);
        upd = gemm_f32(upd, fp_weights_[static_cast<std::size_t>(l)].w2);
      }
      if (!last) act_inplace(upd);
      cur = spmm_csr(local, upd, /*add_self=*/true);
    }
  }
  return cur;
}

}  // namespace qgtc::gnn

#include "gnn/model.hpp"

#include <algorithm>
#include <bit>

#include "baselines/dgl_fp32.hpp"

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

/// The update kernel for an `a_bits` x `w_bits` stage: the code dot where it
/// is exact and the plane pairs make the tile sweep the dearer of the two.
ReuseMode update_kernel(int a_bits, int w_bits, const BmmOptions& opt) {
  return code_dot_applies(a_bits, w_bits, opt) &&
                 a_bits * w_bits >= kCodeDotMinPlanePairs
             ? ReuseMode::kCodeDot
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

void QgtcModel::build_plan() {
  const int n = cfg_.num_layers;
  agg_plan_.assign(static_cast<std::size_t>(n), {});
  upd_plan_.assign(static_cast<std::size_t>(n), {});
  upd2_plan_.assign(static_cast<std::size_t>(n), {});
  const bool gcn = cfg_.kind == ModelKind::kClusterGCN;
  // Every aggregation consumes codes of at most feat_bits bits (calibration
  // only ever narrows a stage's planes), so one test covers all of them.
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
    // Weight planes are final here; activations are feat_bits wide until
    // calibration narrows them and re-picks these kernels.
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
}

int QgtcModel::fused_stage_count() const {
  if (!cfg_.fused_epilogue) return 0;
  const int n = cfg_.num_layers;
  // GCN: every layer's aggregation requantizes (the last feeds the logits
  // MM); updates requantize on hidden layers only. GIN mirrors that with the
  // roles swapped, and the MLP variant doubles the update stages.
  if (cfg_.kind == ModelKind::kClusterGCN) return n + (n - 1);
  return n * (cfg_.gin_mlp ? 2 : 1) + (n - 1);
}

void QgtcModel::quantize_weights() {
  w_qparams_.clear();
  w_planes_.clear();
  w2_planes_.clear();
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

  // Picks an update stage's kernel from its final operand bits and runs it.
  const auto update = [&](const StackedBitTensor& act,
                          const StackedBitTensor& w, EpiloguePlan& plan) {
    plan.kernel = update_kernel(act.bits(), w.bits(), opt);
    return bitmm_fused_int(act, w, {}, opt, plan.kernel);
  };

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

  const bool gcn = cfg_.kind == ModelKind::kClusterGCN;
  // GCN consumes X on the aggregation B side first; GIN on the update A side.
  for (int l = 0; l < cfg_.num_layers; ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    const bool last = (l + 1 == cfg_.num_layers);
    if (gcn) {
      auto xp = StackedBitTensor::decompose(xq, cur_bits, BitLayout::kColMajorK,
                                            PadPolicy::kTile8);
      MatrixI32 agg = aggregate_1bit(adj, xp, agg_plan_[li].kernel, opt);
      requant_stage(agg, agg_plan_[li]);
      auto xn = StackedBitTensor::decompose(agg, agg_plan_[li].out_bits,
                                            BitLayout::kRowMajorK,
                                            PadPolicy::kTile8);
      MatrixI32 upd = update(xn, w_planes_[li], upd_plan_[li]);
      if (last) break;
      requant_stage(upd, upd_plan_[li]);
      cur_bits = upd_plan_[li].out_bits;
      xq = std::move(upd);
    } else {
      auto xp = StackedBitTensor::decompose(xq, cur_bits, BitLayout::kRowMajorK,
                                            PadPolicy::kTile8);
      MatrixI32 upd = update(xp, w_planes_[li], upd_plan_[li]);
      requant_stage(upd, upd_plan_[li]);
      int ub = upd_plan_[li].out_bits;
      if (cfg_.gin_mlp) {
        // Second MLP stage: requantized stage-1 output feeds another GEMM.
        auto xm = StackedBitTensor::decompose(upd, ub, BitLayout::kRowMajorK,
                                              PadPolicy::kTile8);
        MatrixI32 upd2 = update(xm, w2_planes_[li], upd2_plan_[li]);
        requant_stage(upd2, upd2_plan_[li]);
        ub = upd2_plan_[li].out_bits;
        upd = std::move(upd2);
      }
      auto xu = StackedBitTensor::decompose(upd, ub, BitLayout::kColMajorK,
                                            PadPolicy::kTile8);
      MatrixI32 agg = aggregate_1bit(adj, xu, agg_plan_[li].kernel, opt);
      if (last) break;
      requant_stage(agg, agg_plan_[li]);
      cur_bits = agg_plan_[li].out_bits;
      xq = std::move(agg);
    }
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

  const bool gcn = cfg_.kind == ModelKind::kClusterGCN;
  const i64 nodes = adj.rows();
  tcsim::Workspace& ws = exec.workspace();
  // Workspace scratch slots for the unfused fallback's int32 intermediates
  // (reused across layers and batches — nothing is heap-allocated per stage).
  constexpr int kAggScratch = 0, kUpdScratch = 1, kUpd2Scratch = 2;

  // `cur` tracks the packed activation between layers without copying the
  // caller's input planes. Each requantizing stage either runs its epilogue
  // fused (tile-local requantize + re-pack inside the flush, §4.5) or stages
  // through an arena int32 matrix and the same epilogue applied standalone —
  // the plan guarantees the two produce identical planes and tile schedules.
  const StackedBitTensor* cur = &x_planes;
  StackedBitTensor next;
  MatrixI32 logits;

  if (gcn) {
    for (int l = 0; l < cfg_.num_layers; ++l) {
      const std::size_t li = static_cast<std::size_t>(l);
      const bool last = (l + 1 == cfg_.num_layers);
      const EpiloguePlan& ap = agg_plan_[li];
      StackedBitTensor xn;
      if (ap.fused) {
        xn = aggregate_fused_bit(adj, *cur, ap.out_bits, epi_of(ap), agg_opt,
                                 PadPolicy::kTile8, ap.kernel);
      } else {
        MatrixI32& agg = ws.int32_scratch(kAggScratch, nodes, cur->cols());
        aggregate_1bit_into(adj, *cur, ap.kernel, agg, agg_opt);
        requant_inplace(agg, ap);
        xn = StackedBitTensor::decompose(agg, ap.out_bits,
                                         BitLayout::kRowMajorK,
                                         PadPolicy::kTile8);
      }
      const EpiloguePlan& up = upd_plan_[li];
      if (last) {
        logits = bitmm_fused_int(xn, w_planes_[li], {}, opt, up.kernel);
        break;
      }
      if (up.fused) {
        next = bitmm_fused_bit(xn, w_planes_[li], up.out_bits, epi_of(up), opt,
                               PadPolicy::kTile8, BitLayout::kColMajorK,
                               up.kernel);
      } else {
        MatrixI32& upd =
            ws.int32_scratch(kUpdScratch, nodes, w_planes_[li].cols());
        bitmm_fused_int_into(xn, w_planes_[li], upd, {}, opt, up.kernel);
        requant_inplace(upd, up);
        next = StackedBitTensor::decompose(upd, up.out_bits,
                                           BitLayout::kColMajorK,
                                           PadPolicy::kTile8);
      }
      cur = &next;
    }
  } else {
    for (int l = 0; l < cfg_.num_layers; ++l) {
      const std::size_t li = static_cast<std::size_t>(l);
      const bool last = (l + 1 == cfg_.num_layers);
      const EpiloguePlan& up = upd_plan_[li];
      // The first MLP stage hands kRowMajorK planes to the second stage's MM;
      // a single-stage update feeds the aggregation's B side directly.
      const BitLayout l1 = cfg_.gin_mlp ? BitLayout::kRowMajorK
                                        : BitLayout::kColMajorK;
      StackedBitTensor xu;
      if (up.fused) {
        xu = bitmm_fused_bit(*cur, w_planes_[li], up.out_bits, epi_of(up), opt,
                             PadPolicy::kTile8, l1, up.kernel);
      } else {
        MatrixI32& upd =
            ws.int32_scratch(kUpdScratch, nodes, w_planes_[li].cols());
        bitmm_fused_int_into(*cur, w_planes_[li], upd, {}, opt, up.kernel);
        requant_inplace(upd, up);
        xu = StackedBitTensor::decompose(upd, up.out_bits, l1,
                                         PadPolicy::kTile8);
      }
      if (cfg_.gin_mlp) {
        const EpiloguePlan& up2 = upd2_plan_[li];
        if (up2.fused) {
          xu = bitmm_fused_bit(xu, w2_planes_[li], up2.out_bits, epi_of(up2),
                               opt, PadPolicy::kTile8, BitLayout::kColMajorK,
                               up2.kernel);
        } else {
          MatrixI32& upd2 =
              ws.int32_scratch(kUpd2Scratch, nodes, w2_planes_[li].cols());
          bitmm_fused_int_into(xu, w2_planes_[li], upd2, {}, opt, up2.kernel);
          requant_inplace(upd2, up2);
          xu = StackedBitTensor::decompose(upd2, up2.out_bits,
                                           BitLayout::kColMajorK,
                                           PadPolicy::kTile8);
        }
      }
      const EpiloguePlan& ap = agg_plan_[li];
      if (last) {
        logits = aggregate_1bit(adj, xu, ap.kernel, agg_opt);
        break;
      }
      if (ap.fused) {
        next = aggregate_fused_bit(adj, xu, ap.out_bits, epi_of(ap), agg_opt,
                                   PadPolicy::kTile8, ap.kernel);
      } else {
        MatrixI32& agg = ws.int32_scratch(kAggScratch, nodes, xu.cols());
        aggregate_1bit_into(adj, xu, ap.kernel, agg, agg_opt);
        requant_inplace(agg, ap);
        next = StackedBitTensor::decompose(agg, ap.out_bits,
                                           BitLayout::kRowMajorK,
                                           PadPolicy::kTile8);
      }
      cur = &next;
    }
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

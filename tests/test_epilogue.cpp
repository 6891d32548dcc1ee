// Fused quantized epilogue tests: the requantize/activate/re-pack sequence
// executed inside the tile flush must be bit-identical to the unfused
// reference (int32 sweep + standalone requantization) across every backend,
// adjacency layout, epoch mode, activation and bit-width — and must actually
// avoid the int32 intermediate (counter > 0 fused, == 0 unfused).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

namespace qgtc {
namespace {

using tcsim::Activation;
using tcsim::apply_epilogue;
using tcsim::EpilogueSpec;

const Activation kActs[] = {Activation::kIdentity, Activation::kRelu,
                            Activation::kRelu6, Activation::kHardswish};

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits) {
  MatrixI32 m(rows, cols);
  const u64 range = (u64{1} << bits);
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(range));
  }
  return m;
}

// The epilogue computes in i32; it must equal the same steps carried out in
// i64 (the shift widened first) at the extremes of the value and shift
// ranges, for every activation, with and without the clamp.
TEST(Epilogue, I32ArithmeticMatchesTheWideFormula) {
  const auto wide = [](i32 v, const tcsim::EpilogueSpec& spec) {
    i64 w = static_cast<i64>(v) >> spec.rshift;
    switch (spec.act) {
      case Activation::kIdentity: break;
      case Activation::kRelu: w = std::max<i64>(w, 0); break;
      case Activation::kRelu6: w = std::clamp<i64>(w, 0, 6); break;
      case Activation::kHardswish: w = w * std::clamp<i64>(w + 3, 0, 6) / 6; break;
    }
    if (spec.qmax >= 0) w = std::clamp<i64>(w, 0, spec.qmax);
    return static_cast<i32>(w);
  };
  Rng rng(5);
  std::vector<i32> values = {INT32_MIN, INT32_MIN + 1, -65536, -7, -4, -3, -1,
                             0, 1, 3, 4, 7, 65535, INT32_MAX - 1, INT32_MAX};
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<i32>(static_cast<u32>(rng.next_below(u64{1} << 32))));
  }
  for (const Activation act : {Activation::kIdentity, Activation::kRelu,
                               Activation::kRelu6, Activation::kHardswish}) {
    for (int rshift = 0; rshift <= 40; ++rshift) {
      for (const i32 qmax : {-1, 0, 15, 255}) {
        const tcsim::EpilogueSpec spec{act, rshift, qmax};
        for (const i32 v : values) {
          ASSERT_EQ(apply_epilogue(v, spec), wide(v, spec))
              << v << " >> " << rshift << " act " << tcsim::activation_name(act)
              << " qmax " << qmax;
        }
      }
    }
  }
}

TEST(Epilogue, ApplySemantics) {
  // Shift, then activate, then clamp — one definition shared by every path.
  EXPECT_EQ(apply_epilogue(40, {Activation::kIdentity, 2, -1}), 10);
  EXPECT_EQ(apply_epilogue(-8, {Activation::kIdentity, 2, -1}), -2);
  EXPECT_EQ(apply_epilogue(-8, {Activation::kRelu, 2, -1}), 0);
  EXPECT_EQ(apply_epilogue(40, {Activation::kRelu6, 2, -1}), 6);
  EXPECT_EQ(apply_epilogue(5, {Activation::kRelu6, 0, -1}), 5);
  // hardswish(x) = x * clamp(x+3, 0, 6) / 6, truncating division.
  EXPECT_EQ(apply_epilogue(-4, {Activation::kHardswish, 0, -1}), 0);
  EXPECT_EQ(apply_epilogue(-2, {Activation::kHardswish, 0, -1}), 0);  // -2*1/6
  EXPECT_EQ(apply_epilogue(-1, {Activation::kHardswish, 0, -1}), 0);  // -2/6
  EXPECT_EQ(apply_epilogue(1, {Activation::kHardswish, 0, -1}), 0);   // 4/6
  EXPECT_EQ(apply_epilogue(2, {Activation::kHardswish, 0, -1}), 1);   // 10/6
  EXPECT_EQ(apply_epilogue(9, {Activation::kHardswish, 0, -1}), 9);   // linear
  // Clamp to [0, qmax] last.
  EXPECT_EQ(apply_epilogue(300, {Activation::kIdentity, 3, 15}), 15);
  EXPECT_EQ(apply_epilogue(40, {Activation::kIdentity, 2, 15}), 10);
  // ReLU commutes with the arithmetic shift (the historical ordering).
  for (i32 v : {-1000, -65, -64, -1, 0, 1, 63, 64, 1000}) {
    const i32 shifted_then_act = apply_epilogue(v, {Activation::kRelu, 6, -1});
    const i32 act_then_shifted =
        apply_epilogue(std::max(v, 0), {Activation::kIdentity, 6, -1});
    EXPECT_EQ(shifted_then_act, act_then_shifted) << v;
  }
}

TEST(Epilogue, ActivationNames) {
  for (const Activation a : kActs) {
    EXPECT_EQ(tcsim::parse_activation(tcsim::activation_name(a)), a);
  }
  EXPECT_THROW((void)tcsim::parse_activation("gelu"), std::invalid_argument);
}

// flush_planes (the plane-writer epilogue) vs the manual reference — an
// int32 MM followed by elementwise apply_epilogue and a standalone
// decompose — for every backend, both output layouts (row-major exercises
// the straight scatter, col-major the transposed one) and ragged edge
// tiles. Also checks the int32-bytes-avoided accounting.
TEST(Epilogue, FusedBitMatchesManualAcrossBackends) {
  Rng rng(101);
  const int s = 3, t = 2, out_bits = 4;
  const MatrixI32 a = random_codes(rng, 21, 140, s);  // ragged edge tiles
  const MatrixI32 b = random_codes(rng, 140, 11, t);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);
  const MatrixI32 raw = bitmm_to_int(pa, pb);
  i32 mx = 0;
  for (i64 i = 0; i < raw.size(); ++i) mx = std::max(mx, raw.data()[i]);

  for (const auto kind : tcsim::all_backends()) {
    for (const Activation act : kActs) {
      FusedEpilogue epi;
      epi.act = act;
      epi.rshift = calibrate_rshift(mx, out_bits);
      const EpilogueSpec spec{act, epi.rshift,
                              static_cast<i32>((u32{1} << out_bits) - 1)};
      MatrixI32 expect = raw;
      for (i64 i = 0; i < expect.size(); ++i) {
        expect.data()[i] = apply_epilogue(expect.data()[i], spec);
      }
      for (const auto layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
        tcsim::ExecutionContext ctx(kind);
        BmmOptions opt;
        opt.ctx = &ctx;
        const StackedBitTensor out = bitmm_fused_bit(
            pa, pb, out_bits, epi, opt, PadPolicy::kTile8, layout);
        EXPECT_EQ(out.compose(), expect)
            << tcsim::backend_name(kind) << "/" << tcsim::activation_name(act);
        EXPECT_EQ(ctx.counters().int32_bytes_avoided,
                  static_cast<u64>(raw.rows() * raw.cols() * sizeof(i32)));
      }
    }
  }
}

// flush_epilogue (int32 output, activation only) vs the manual reference.
TEST(Epilogue, FusedIntActivationAcrossBackends) {
  Rng rng(103);
  const MatrixI32 a = random_codes(rng, 13, 130, 2);
  const MatrixI32 b = random_codes(rng, 130, 10, 1);
  const auto pa = StackedBitTensor::decompose(a, 2, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, 1, BitLayout::kColMajorK);
  const MatrixI32 raw = bitmm_to_int(pa, pb);
  for (const auto kind : tcsim::all_backends()) {
    for (const Activation act : kActs) {
      tcsim::ExecutionContext ctx(kind);
      BmmOptions opt;
      opt.ctx = &ctx;
      FusedEpilogue epi;
      epi.act = act;
      MatrixI32 expect = raw;
      for (i64 i = 0; i < expect.size(); ++i) {
        expect.data()[i] =
            apply_epilogue(expect.data()[i], EpilogueSpec{act, 0, -1});
      }
      EXPECT_EQ(bitmm_fused_int(pa, pb, epi, opt), expect)
          << tcsim::backend_name(kind) << "/" << tcsim::activation_name(act);
      // The int32 output path materialises its result — nothing avoided.
      EXPECT_EQ(ctx.counters().int32_bytes_avoided, 0u);
    }
  }
}

struct ModelFixture {
  Dataset ds;
  BitMatrix adj;
  TileSparseBitMatrix sparse_adj;
  MatrixF feats;

  explicit ModelFixture(i64 nodes = 300) {
    DatasetSpec spec{"t", nodes, nodes * 6, 16, 4, 4, 9};
    ds = generate_dataset(spec);
    PartitionResult parts = partition_graph(ds.graph, 4);
    auto batches = make_batches(parts, 4);  // single batch, whole graph
    adj = build_batch_adjacency(ds.graph, batches[0]);
    sparse_adj = TileSparseBitMatrix::from_bit_matrix(adj);
    feats = gather_rows(ds.features, batches[0].nodes);
  }

  gnn::GnnConfig config(gnn::ModelKind kind, int bits, Activation act) const {
    gnn::GnnConfig cfg;
    cfg.kind = kind;
    cfg.num_layers = 3;
    cfg.in_dim = 16;
    cfg.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 64;
    cfg.out_dim = 4;
    cfg.feat_bits = bits;
    cfg.weight_bits = bits;
    cfg.activation = act;
    return cfg;
  }
};

struct ModelRun {
  MatrixI32 logits;
  gnn::ForwardStats stats;
  int code_dot_updates = 0;  // update stages the calibrated plan runs as
  int sweep_updates = 0;     // the code dot / the tile sweep
  int code_outputs = 0;      // stages that hand over a code matrix
};

ModelRun run_model(const ModelFixture& f, const gnn::GnnConfig& cfg,
                   tcsim::BackendKind kind, bool sparse) {
  gnn::QgtcModel m = gnn::QgtcModel::create(cfg, 13);
  ModelRun r;
  tcsim::ExecutionContext ctx(kind);
  if (sparse) {
    m.calibrate(f.sparse_adj, f.feats);
    const StackedBitTensor x = m.prepare_input(f.feats);
    r.logits = m.forward_prepared(f.sparse_adj, x, &r.stats, &ctx);
  } else {
    m.calibrate(f.adj, f.feats);
    r.logits = m.forward_quantized(f.adj, f.feats, &r.stats, &ctx);
  }
  for (int l = 0; l < cfg.num_layers; ++l) {
    std::vector<const gnn::EpiloguePlan*> updates = {&m.upd_plan(l)};
    if (cfg.gin_mlp) updates.push_back(&m.upd2_plan(l));
    for (const gnn::EpiloguePlan* p : updates) {
      (p->kernel == ReuseMode::kCodeDot ? r.code_dot_updates : r.sweep_updates)++;
      r.code_outputs += p->out_form == gnn::StageOutput::kCodes;
    }
    r.code_outputs += m.agg_plan(l).out_form == gnn::StageOutput::kCodes;
  }
  return r;
}

// The tentpole parity claim: fused and unfused model passes produce
// bit-identical logits AND the identical tile schedule (bmma_ops,
// tiles_jumped) on every backend × adjacency layout, while only the fused
// pass skips int32 intermediates. (frag_loads are not compared: they count
// A fragment loads per schedule, which is not part of this claim.) Fused
// stages whose consumer runs a code kernel hand over u8 codes instead of
// planes, so this is also the code handoff against planes: with jumping
// every stage runs a code kernel, and without it every stage runs a tile
// sweep and hands over planes.
TEST(Epilogue, ModelParityAcrossBackendsAndLayouts) {
  struct Case {
    gnn::ModelKind kind;
    int bits;
    bool gin_mlp;
    bool jump = true;
  };
  const ModelFixture f;
  for (const auto kind : tcsim::all_backends()) {
    for (const Case c : {Case{gnn::ModelKind::kClusterGCN, 2, false},
                         Case{gnn::ModelKind::kClusterGCN, 2, false, false},
                         Case{gnn::ModelKind::kClusterGCN, 4, false},
                         Case{gnn::ModelKind::kClusterGCN, 8, false},
                         Case{gnn::ModelKind::kBatchedGIN, 4, false},
                         Case{gnn::ModelKind::kBatchedGIN, 8, false},
                         Case{gnn::ModelKind::kBatchedGIN, 8, true}}) {
      for (const bool sparse : {false, true}) {
        gnn::GnnConfig fused_cfg = f.config(c.kind, c.bits, Activation::kRelu);
        fused_cfg.gin_mlp = c.gin_mlp;
        fused_cfg.zero_tile_jump = c.jump;
        fused_cfg.fused_epilogue = true;
        gnn::GnnConfig unfused_cfg = fused_cfg;
        unfused_cfg.fused_epilogue = false;
        const ModelRun fused = run_model(f, fused_cfg, kind, sparse);
        const ModelRun unfused = run_model(f, unfused_cfg, kind, sparse);
        const std::string tag = std::string(tcsim::backend_name(kind)) + "/" +
                                gnn::model_name(c.kind) +
                                (c.gin_mlp ? "-mlp/" : "/") +
                                std::to_string(c.bits) +
                                (c.jump ? "" : "/no-jump") +
                                (sparse ? "/sparse" : "/dense");
        EXPECT_EQ(fused.logits, unfused.logits) << tag;
        EXPECT_EQ(fused.stats.bmma_ops, unfused.stats.bmma_ops) << tag;
        EXPECT_EQ(fused.stats.tiles_jumped, unfused.stats.tiles_jumped)
            << tag;
        EXPECT_EQ(fused.stats.gather_edges, unfused.stats.gather_edges) << tag;
        EXPECT_EQ(fused.stats.code_macs, unfused.stats.code_macs) << tag;
        EXPECT_EQ(fused.stats.code_macs > 0, fused.code_dot_updates > 0)
            << tag;
        EXPECT_EQ(fused.code_dot_updates, unfused.code_dot_updates) << tag;
        EXPECT_EQ(unfused.code_outputs, 0) << tag;
        if (c.jump) {
          EXPECT_GT(fused.code_outputs, 0) << tag;
          EXPECT_EQ(fused.sweep_updates, 0) << tag;
          EXPECT_EQ(fused.stats.bmma_ops, 0) << tag;
        } else {
          EXPECT_EQ(fused.code_outputs, 0) << tag;
          EXPECT_EQ(fused.code_dot_updates, 0) << tag;
          EXPECT_GT(fused.stats.bmma_ops, 0) << tag;
        }
        EXPECT_GT(fused.stats.int32_bytes_avoided, 0) << tag;
        EXPECT_EQ(unfused.stats.int32_bytes_avoided, 0) << tag;
      }
    }
  }
}

TEST(Epilogue, ModelParityAcrossActivationsAndBits) {
  const ModelFixture f;
  for (const Activation act :
       {Activation::kRelu, Activation::kRelu6, Activation::kHardswish}) {
    for (const int bits : {1, 2, 4}) {
      gnn::GnnConfig fused_cfg =
          f.config(gnn::ModelKind::kClusterGCN, bits, act);
      fused_cfg.fused_epilogue = true;
      gnn::GnnConfig unfused_cfg = fused_cfg;
      unfused_cfg.fused_epilogue = false;
      const auto kind = tcsim::default_backend();
      const ModelRun fused = run_model(f, fused_cfg, kind, false);
      const ModelRun unfused = run_model(f, unfused_cfg, kind, false);
      const std::string tag =
          std::string(tcsim::activation_name(act)) + "/" + std::to_string(bits);
      EXPECT_EQ(fused.logits, unfused.logits) << tag;
      EXPECT_EQ(fused.stats.bmma_ops, unfused.stats.bmma_ops) << tag;
      EXPECT_EQ(fused.stats.tiles_jumped, unfused.stats.tiles_jumped) << tag;
    }
  }
}

// The rewrite pass: every requantizing stage is planned fused with the
// config's activation; final-layer stages stay identity (full-precision
// logits for softmax).
TEST(Epilogue, RewritePassPlansStages) {
  const ModelFixture f;
  gnn::GnnConfig cfg = f.config(gnn::ModelKind::kClusterGCN, 4,
                                Activation::kRelu6);
  gnn::QgtcModel m = gnn::QgtcModel::create(cfg, 7);
  // GCN, 3 layers: agg+update fused on layers 0..n-2, agg only on the last.
  EXPECT_EQ(m.fused_stage_count(), 5);
  EXPECT_EQ(m.agg_plan(0).act, Activation::kIdentity);  // agg never activates
  EXPECT_EQ(m.upd_plan(0).act, Activation::kRelu6);
  EXPECT_EQ(m.upd_plan(2).act, Activation::kIdentity);  // logits layer
  cfg.fused_epilogue = false;
  EXPECT_EQ(gnn::QgtcModel::create(cfg, 7).fused_stage_count(), 0);
}

// Per-layer bit-width selection: narrowed plans are exact on the
// calibration batch and never execute more tile work than the fixed-width
// config.
TEST(Epilogue, PerLayerBitsExactOnCalibrationBatch) {
  const ModelFixture f;
  gnn::GnnConfig on_cfg = f.config(gnn::ModelKind::kClusterGCN, 6,
                                   Activation::kRelu);
  on_cfg.per_layer_bits = true;
  gnn::GnnConfig off_cfg = on_cfg;
  off_cfg.per_layer_bits = false;
  const auto kind = tcsim::default_backend();
  const ModelRun on = run_model(f, on_cfg, kind, false);
  const ModelRun off = run_model(f, off_cfg, kind, false);
  EXPECT_EQ(on.logits, off.logits);
  EXPECT_LE(on.stats.bmma_ops, off.stats.bmma_ops);
}

Dataset engine_dataset() {
  DatasetSpec spec{"epi-engine", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

core::EngineConfig engine_config(gnn::ModelKind kind, bool fused,
                                 bool streaming) {
  core::EngineConfig cfg;
  cfg.model.kind = kind;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 32;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.model.fused_epilogue = fused;
  cfg.num_partitions = 16;
  cfg.batch_size = 4;
  if (streaming) cfg.mode.epoch = core::RunMode::Epoch::kStreaming;
  return cfg;
}

// Engine-level parity: fused vs unfused across precomputed and streaming
// epoch modes — identical logits and tile schedule everywhere; the fusion
// stats report stages and avoided bytes only when fusion is on.
TEST(Epilogue, EngineParityAcrossEpochModes) {
  const Dataset ds = engine_dataset();
  for (const auto mk :
       {gnn::ModelKind::kClusterGCN, gnn::ModelKind::kBatchedGIN}) {
    std::vector<MatrixI32> ref_logits;
    i64 ref_bmma = -1, ref_jumped = -1;
    for (const bool streaming : {false, true}) {
      for (const bool fused : {true, false}) {
        core::QgtcEngine engine(ds, engine_config(mk, fused, streaming));
        std::vector<MatrixI32> logits;
        const auto stats = engine.run_quantized(1, &logits);
        const std::string tag = std::string(gnn::model_name(mk)) +
                                (streaming ? "/streaming" : "/precomputed") +
                                (fused ? "/fused" : "/unfused");
        if (ref_bmma < 0) {
          ref_logits = std::move(logits);
          ref_bmma = stats.bmma_ops;
          ref_jumped = stats.tiles_jumped;
        } else {
          EXPECT_EQ(logits, ref_logits) << tag;
          EXPECT_EQ(stats.bmma_ops, ref_bmma) << tag;
          EXPECT_EQ(stats.tiles_jumped, ref_jumped) << tag;
        }
        if (fused) {
          EXPECT_GT(stats.epilogue_fused_layers, 0) << tag;
          EXPECT_GT(stats.int32_bytes_avoided, 0) << tag;
        } else {
          EXPECT_EQ(stats.epilogue_fused_layers, 0) << tag;
          EXPECT_EQ(stats.int32_bytes_avoided, 0) << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qgtc

// GNN model tests: shapes, calibration, fused/unfused parity over the full
// forward pass, reuse-mode parity, determinism, GCN vs GIN wiring, and
// directional agreement between the quantized and fp32 paths at high bits.
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "common/rng.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"

namespace qgtc::gnn {
namespace {

struct Fixture {
  Dataset ds;
  BitMatrix adj;
  CsrGraph local;
  MatrixF feats;

  explicit Fixture(i64 nodes = 300) {
    DatasetSpec spec{"t", nodes, nodes * 6, 16, 4, 4, 9};
    ds = generate_dataset(spec);
    PartitionResult parts = partition_graph(ds.graph, 4);
    auto batches = make_batches(parts, 4);  // single batch, whole graph
    adj = build_batch_adjacency(ds.graph, batches[0]);
    local = build_batch_csr(ds.graph, batches[0]);
    feats = gather_rows(ds.features, batches[0].nodes);
  }

  GnnConfig config(ModelKind kind, int bits) const {
    GnnConfig cfg;
    cfg.kind = kind;
    cfg.num_layers = 3;
    cfg.in_dim = 16;
    cfg.hidden_dim = kind == ModelKind::kClusterGCN ? 16 : 64;
    cfg.out_dim = 4;
    cfg.feat_bits = bits;
    cfg.weight_bits = bits;
    return cfg;
  }
};

TEST(Layers, InitWeightsShapes) {
  GnnConfig cfg;
  cfg.num_layers = 3;
  cfg.in_dim = 10;
  cfg.hidden_dim = 8;
  cfg.out_dim = 5;
  const auto ws = init_weights(cfg, 1);
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[0].w.rows(), 10);
  EXPECT_EQ(ws[0].w.cols(), 8);
  EXPECT_EQ(ws[1].w.rows(), 8);
  EXPECT_EQ(ws[1].w.cols(), 8);
  EXPECT_EQ(ws[2].w.rows(), 8);
  EXPECT_EQ(ws[2].w.cols(), 5);
}

TEST(Layers, LayerDimsHelper) {
  GnnConfig cfg;
  cfg.num_layers = 2;
  cfg.in_dim = 7;
  cfg.hidden_dim = 3;
  cfg.out_dim = 2;
  EXPECT_EQ(cfg.layer_in(0), 7);
  EXPECT_EQ(cfg.layer_out(0), 3);
  EXPECT_EQ(cfg.layer_in(1), 3);
  EXPECT_EQ(cfg.layer_out(1), 2);
}

TEST(Model, ForwardShapes) {
  Fixture f;
  for (const auto kind : {ModelKind::kClusterGCN, ModelKind::kBatchedGIN}) {
    QgtcModel m = QgtcModel::create(f.config(kind, 4), 11);
    m.calibrate(f.adj, f.feats);
    const MatrixI32 logits = m.forward_quantized(f.adj, f.feats);
    EXPECT_EQ(logits.rows(), f.adj.rows());
    EXPECT_EQ(logits.cols(), 4);
    const MatrixF ref = m.forward_fp32(f.local, f.feats);
    EXPECT_EQ(ref.rows(), f.adj.rows());
    EXPECT_EQ(ref.cols(), 4);
  }
}

TEST(Model, FusedMatchesUnfused) {
  Fixture f;
  for (const auto kind : {ModelKind::kClusterGCN, ModelKind::kBatchedGIN}) {
    GnnConfig fused_cfg = f.config(kind, 4);
    fused_cfg.fused_epilogue = true;
    GnnConfig unfused_cfg = fused_cfg;
    unfused_cfg.fused_epilogue = false;

    QgtcModel fused = QgtcModel::create(fused_cfg, 13);
    QgtcModel unfused = QgtcModel::create(unfused_cfg, 13);
    fused.calibrate(f.adj, f.feats);
    unfused.calibrate(f.adj, f.feats);
    EXPECT_EQ(fused.forward_quantized(f.adj, f.feats),
              unfused.forward_quantized(f.adj, f.feats))
        << model_name(kind);
  }
}

TEST(Model, ReuseModesIdentical) {
  // Every aggregation schedule computes the same integers, so logits match
  // for GCN and GIN, fused and unfused. The row gather replaces only the
  // aggregation tile MMAs: it jumps the same tiles and adds one code row per
  // adjacency bit instead.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the row gather runs on little-endian hosts only";
  }
  Fixture f;
  for (const ModelKind kind : {ModelKind::kClusterGCN, ModelKind::kBatchedGIN}) {
    for (const bool fused : {false, true}) {
      const std::string tag =
          std::string(model_name(kind)) + (fused ? " fused" : " unfused");
      GnnConfig cfg = f.config(kind, 3);
      cfg.fused_epilogue = fused;
      MatrixI32 want;
      ForwardStats tile_stats;
      for (const ReuseMode mode :
           {ReuseMode::kCrossTile, ReuseMode::kCrossBit, ReuseMode::kRowGather}) {
        cfg.reuse = mode;
        QgtcModel model = QgtcModel::create(cfg, 17);
        model.calibrate(f.adj, f.feats);
        EXPECT_EQ(model.agg_plan(0).kernel, mode) << tag;
        ForwardStats st;
        const MatrixI32 got = model.forward_quantized(f.adj, f.feats, &st);
        if (mode == ReuseMode::kCrossTile) {
          want = got;
          tile_stats = st;
          EXPECT_EQ(st.gather_edges, 0) << tag;
          continue;
        }
        EXPECT_EQ(got, want) << tag;
        if (mode == ReuseMode::kRowGather) {
          EXPECT_EQ(st.tiles_jumped, tile_stats.tiles_jumped) << tag;
          EXPECT_LT(st.bmma_ops, tile_stats.bmma_ops) << tag;
          EXPECT_GT(st.gather_edges, 0) << tag;
        }
      }
    }
  }
}

TEST(Model, SharedNeighbourListMatchesPerCallAggregation) {
  // A forward expands the adjacency's neighbour list once and every gather
  // reads it. Per call, each gather would walk the adjacency itself: the
  // logits are the tile sweep's, the jumped tiles the sweep's, and every
  // gather adds each adjacency bit once. Both adjacency layouts, every
  // backend, fused and unfused.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the row gather runs on little-endian hosts only";
  }
  Fixture f;
  const TileSparseBitMatrix sparse = TileSparseBitMatrix::from_bit_matrix(f.adj);
  const TileMap map = build_tile_map(f.adj);
  i64 edges = 0;
  for (i64 r = 0; r < f.adj.rows(); ++r) {
    for (i64 w = 0; w < f.adj.k_words(); ++w) {
      edges += std::popcount(f.adj.row_words(r)[w]);
    }
  }
  for (const ModelKind kind : {ModelKind::kClusterGCN, ModelKind::kBatchedGIN}) {
    for (const bool fused : {false, true}) {
      GnnConfig cfg = f.config(kind, 4);
      cfg.fused_epilogue = fused;
      cfg.reuse = ReuseMode::kCrossTile;
      QgtcModel sweep = QgtcModel::create(cfg, 23);
      sweep.calibrate(f.adj, f.feats);
      cfg.reuse = ReuseMode::kRowGather;
      QgtcModel gather = QgtcModel::create(cfg, 23);
      gather.calibrate(f.adj, f.feats);
      const StackedBitTensor x = gather.prepare_input(f.feats);
      ForwardStats want;
      const MatrixI32 logits = sweep.forward_prepared(sparse, x, &want);
      for (const tcsim::BackendKind be : tcsim::all_backends()) {
        const std::string tag = std::string(model_name(kind)) +
                                (fused ? " fused " : " unfused ") +
                                tcsim::backend_name(be);
        const tcsim::ExecutionContext ctx(be);
        ForwardStats s_sparse, s_dense;
        EXPECT_EQ(gather.forward_prepared(sparse, x, &s_sparse, &ctx), logits)
            << tag;
        EXPECT_EQ(gather.forward_prepared(f.adj, &map, x, &s_dense, &ctx), logits)
            << tag;
        for (const ForwardStats& s : {s_sparse, s_dense}) {
          EXPECT_EQ(s.tiles_jumped, want.tiles_jumped) << tag;
          EXPECT_EQ(s.gather_edges, cfg.num_layers * edges) << tag;
        }
      }
    }
  }
}

TEST(Model, RowGatherPlannedOnlyWhereExact) {
  // The plan keeps the tile sweep where the gather would not be exact or
  // where the config asks for a tile ablation (no zero-tile jumping).
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the row gather runs on little-endian hosts only";
  }
  const Fixture f;
  GnnConfig cfg = f.config(ModelKind::kClusterGCN, 8);
  EXPECT_EQ(QgtcModel::create(cfg, 3).agg_plan(1).kernel, ReuseMode::kRowGather);
  cfg.zero_tile_jump = false;
  EXPECT_EQ(QgtcModel::create(cfg, 3).agg_plan(1).kernel, ReuseMode::kCrossTile);
  cfg = f.config(ModelKind::kBatchedGIN, 16);
  EXPECT_EQ(QgtcModel::create(cfg, 3).agg_plan(0).kernel, ReuseMode::kCrossTile);
  cfg = f.config(ModelKind::kBatchedGIN, 8);
  cfg.weight_bits = 16;  // wrapping accumulators: no int32 bound to rely on
  EXPECT_EQ(QgtcModel::create(cfg, 3).agg_plan(0).kernel, ReuseMode::kCrossTile);
  EXPECT_EQ(QgtcModel::create(cfg, 3).upd_plan(0).kernel, ReuseMode::kCrossTile);
}

// Jumping on vs off. The jumping model's updates run the code dot and the
// other's the tile sweep (the code dot needs jumping), so this is also the
// code dot against the sweep over a whole forward pass.
TEST(Model, ZeroTileJumpIdentical) {
  Fixture f;
  for (const int bits : {2, 4, 8}) {
    GnnConfig on_cfg = f.config(ModelKind::kBatchedGIN, bits);
    on_cfg.zero_tile_jump = true;
    GnnConfig off_cfg = on_cfg;
    off_cfg.zero_tile_jump = false;
    QgtcModel on = QgtcModel::create(on_cfg, 19);
    QgtcModel off = QgtcModel::create(off_cfg, 19);
    on.calibrate(f.adj, f.feats);
    off.calibrate(f.adj, f.feats);
    for (int l = 0; l < on_cfg.num_layers; ++l) {
      EXPECT_EQ(on.upd_plan(l).kernel, ReuseMode::kCodeDot)
          << bits << " bits, layer " << l;
      EXPECT_EQ(off.upd_plan(l).kernel, ReuseMode::kCrossTile);
    }

    ForwardStats s_on, s_off;
    EXPECT_EQ(on.forward_quantized(f.adj, f.feats, &s_on),
              off.forward_quantized(f.adj, f.feats, &s_off))
        << bits << " bits";
    EXPECT_GT(s_on.tiles_jumped, 0);
    EXPECT_EQ(s_off.tiles_jumped, 0);
    EXPECT_LT(s_on.bmma_ops, s_off.bmma_ops);
    EXPECT_GT(s_on.code_macs, 0);
    EXPECT_EQ(s_off.code_macs, 0);
  }
}

TEST(Model, Deterministic) {
  Fixture f;
  QgtcModel m = QgtcModel::create(f.config(ModelKind::kClusterGCN, 2), 23);
  m.calibrate(f.adj, f.feats);
  EXPECT_EQ(m.forward_quantized(f.adj, f.feats),
            m.forward_quantized(f.adj, f.feats));
}

TEST(Model, HighBitTracksFp32Ranking) {
  // At 8 bits the quantized argmax should agree with fp32 on a solid
  // majority of nodes (quantization is sign/ranking-preserving in the bulk).
  Fixture f;
  QgtcModel m = QgtcModel::create(f.config(ModelKind::kClusterGCN, 8), 29);
  m.calibrate(f.adj, f.feats);
  const MatrixI32 q = m.forward_quantized(f.adj, f.feats);
  const MatrixF r = m.forward_fp32(f.local, f.feats);
  i64 agree = 0;
  for (i64 u = 0; u < q.rows(); ++u) {
    i64 qa = 0, ra = 0;
    for (i64 c = 1; c < q.cols(); ++c) {
      if (q(u, c) > q(u, qa)) qa = c;
      if (r(u, c) > r(u, ra)) ra = c;
    }
    agree += (qa == ra);
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(q.rows()), 0.6);
}

TEST(Model, HighBitsRunWithOverflowOptIn) {
  // 16-bit configuration (paper Figure 7 runs it) must execute without
  // throwing; overflow is defined-wrap.
  Fixture f;
  QgtcModel m = QgtcModel::create(f.config(ModelKind::kClusterGCN, 16), 31);
  m.calibrate(f.adj, f.feats);
  const MatrixI32 logits = m.forward_quantized(f.adj, f.feats);
  EXPECT_EQ(logits.cols(), 4);
}

TEST(Model, GinMlpUpdateRuns) {
  Fixture f;
  GnnConfig cfg = f.config(ModelKind::kBatchedGIN, 4);
  cfg.gin_mlp = true;
  QgtcModel m = QgtcModel::create(cfg, 37);
  m.calibrate(f.adj, f.feats);
  const MatrixI32 logits = m.forward_quantized(f.adj, f.feats);
  EXPECT_EQ(logits.rows(), f.adj.rows());
  EXPECT_EQ(logits.cols(), 4);
  const MatrixF ref = m.forward_fp32(f.local, f.feats);
  EXPECT_EQ(ref.cols(), 4);
}

TEST(Model, GinMlpFusedMatchesUnfused) {
  Fixture f;
  GnnConfig fused_cfg = f.config(ModelKind::kBatchedGIN, 3);
  fused_cfg.gin_mlp = true;
  GnnConfig unfused_cfg = fused_cfg;
  unfused_cfg.fused_epilogue = false;
  QgtcModel fused = QgtcModel::create(fused_cfg, 41);
  QgtcModel unfused = QgtcModel::create(unfused_cfg, 41);
  fused.calibrate(f.adj, f.feats);
  unfused.calibrate(f.adj, f.feats);
  EXPECT_EQ(fused.forward_quantized(f.adj, f.feats),
            unfused.forward_quantized(f.adj, f.feats));
}

TEST(Model, GinMlpWeightShapes) {
  GnnConfig cfg;
  cfg.num_layers = 2;
  cfg.in_dim = 10;
  cfg.hidden_dim = 6;
  cfg.out_dim = 3;
  cfg.gin_mlp = true;
  const auto ws = init_weights(cfg, 1);
  EXPECT_EQ(ws[0].w2.rows(), 6);
  EXPECT_EQ(ws[0].w2.cols(), 6);
  EXPECT_EQ(ws[1].w2.rows(), 3);
  EXPECT_EQ(ws[1].w2.cols(), 3);
}

TEST(Model, WeightCountMismatchThrows) {
  Fixture f;
  GnnConfig cfg = f.config(ModelKind::kClusterGCN, 4);
  auto ws = init_weights(cfg, 1);
  ws.pop_back();
  EXPECT_THROW(QgtcModel::from_weights(cfg, std::move(ws)),
               std::invalid_argument);
}

}  // namespace
}  // namespace qgtc::gnn

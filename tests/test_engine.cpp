// End-to-end engine tests: pipeline wiring, stats, transfer accounting,
// zero-tile census, determinism.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/stats.hpp"
#include "parallel/parallel_for.hpp"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace qgtc::core {
namespace {

Dataset small_dataset() {
  DatasetSpec spec{"engine-test", 2000, 14000, 16, 4, 16, 77};
  return generate_dataset(spec);
}

EngineConfig small_config(gnn::ModelKind kind, int bits) {
  EngineConfig cfg;
  cfg.model.kind = kind;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = kind == gnn::ModelKind::kClusterGCN ? 16 : 32;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = bits;
  cfg.model.weight_bits = bits;
  cfg.num_partitions = 16;
  cfg.batch_size = 4;
  return cfg;
}

TEST(Engine, BuildsBatchesAndCalibrates) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 4));
  EXPECT_EQ(engine.num_batches(), 4);
  EXPECT_TRUE(engine.model().calibrated());
  i64 covered = 0;
  for (const auto& bd : engine.batch_data()) covered += bd->batch.size();
  EXPECT_EQ(covered, 2000);
}

TEST(Engine, RunQuantizedPopulatesStats) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 2));
  const EngineStats s = engine.run_quantized(1);
  EXPECT_GT(s.forward_seconds, 0.0);
  EXPECT_EQ(s.batches, 4);
  EXPECT_EQ(s.nodes, 2000);
  EXPECT_GT(s.code_macs, 0);  // 2-bit updates run the code dot
  EXPECT_GT(s.tiles_jumped, 0);  // batching guarantees zero tiles
}

TEST(Engine, RunFp32Works) {
  const Dataset ds = small_dataset();
  EngineConfig cfg = small_config(gnn::ModelKind::kBatchedGIN, 4);
  QgtcEngine engine(ds, cfg);
  const EngineStats s = engine.run_fp32(1);
  EXPECT_GT(s.forward_seconds, 0.0);
  EXPECT_EQ(s.nodes, 2000);
  // Precomputed fp32 epochs run on the stage pipeline too, shipping nothing.
  EXPECT_GT(s.stage_breakdown.compute.busy_seconds, 0.0);
  EXPECT_EQ(s.dense_bytes, 0);

  cfg.mode = RunMode::streaming_pipeline(2, 2);
  QgtcEngine streaming(ds, cfg);
  const EngineStats st = streaming.run_fp32(1);
  EXPECT_GT(st.forward_seconds, 0.0);
  EXPECT_EQ(st.batches, s.batches);
  EXPECT_EQ(st.nodes, s.nodes);
  EXPECT_GT(st.stage_breakdown.compute.busy_seconds, 0.0);
  EXPECT_GT(st.dense_bytes, 0);  // modelled dense transfer charged inline
}

TEST(Engine, TransferAccountingPackedSmaller) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 4));
  const EngineStats s = engine.transfer_accounting();
  EXPECT_GT(s.packed_bytes, 0);
  EXPECT_GT(s.dense_bytes, s.packed_bytes);
  EXPECT_LT(s.packed_transfer_seconds, s.dense_transfer_seconds);
}

TEST(Engine, ZeroTileRatioInUnitRange) {
  const Dataset ds = small_dataset();
  QgtcEngine engine(ds, small_config(gnn::ModelKind::kClusterGCN, 4));
  const double r = engine.nonzero_tile_ratio();
  EXPECT_GT(r, 0.0);
  EXPECT_LT(r, 1.0);  // block-diagonal batching guarantees zero tiles
}

TEST(Engine, MismatchedDimsThrow) {
  const Dataset ds = small_dataset();
  EngineConfig cfg = small_config(gnn::ModelKind::kClusterGCN, 4);
  cfg.model.in_dim = 99;
  EXPECT_THROW(QgtcEngine(ds, cfg), std::invalid_argument);
}

TEST(Engine, QuantizedLogitsDeterministic) {
  const Dataset ds = small_dataset();
  const EngineConfig cfg = small_config(gnn::ModelKind::kClusterGCN, 3);
  QgtcEngine e1(ds, cfg);
  QgtcEngine e2(ds, cfg);
  const auto& bd1 = *e1.batch_data().front();
  const auto& bd2 = *e2.batch_data().front();
  EXPECT_EQ(e1.model().forward_quantized(bd1.adj, bd1.features),
            e2.model().forward_quantized(bd2.adj, bd2.features));
}

TEST(Engine, EpochBitIdenticalAtOneAndFourThreads) {
  // Results must not depend on the thread count: one epoch on a single
  // thread vs four OpenMP threads (inside each forward pass, and across
  // inter-batch workers), in both epoch modes, logits and counters alike.
  // With the default row gathers, updates of 4 and more bits run the code
  // dot and the stages hand each other u8 codes; 2-bit GCN mixes tile-sweep
  // updates with gathers. With tile-sweep aggregations the GIN updates
  // (code dot at 4 bits, sweep at 2) write kColMajorK planes, whose words
  // four row blocks share.
  struct Case {
    gnn::ModelKind kind;
    int bits;
    ReuseMode reuse;
  };
  const Dataset ds = small_dataset();
  const int saved = num_threads();
  for (const Case c : {Case{gnn::ModelKind::kClusterGCN, 2, ReuseMode::kRowGather},
                       Case{gnn::ModelKind::kClusterGCN, 4, ReuseMode::kRowGather},
                       Case{gnn::ModelKind::kClusterGCN, 8, ReuseMode::kRowGather},
                       Case{gnn::ModelKind::kBatchedGIN, 4, ReuseMode::kRowGather},
                       Case{gnn::ModelKind::kBatchedGIN, 8, ReuseMode::kRowGather},
                       Case{gnn::ModelKind::kBatchedGIN, 2, ReuseMode::kCrossTile},
                       Case{gnn::ModelKind::kBatchedGIN, 4, ReuseMode::kCrossTile}}) {
    for (const bool streaming : {false, true}) {
      EngineConfig cfg = small_config(c.kind, c.bits);
      cfg.model.reuse = c.reuse;
      if (streaming) {
        cfg.mode = RunMode::streaming_pipeline(/*depth=*/2, /*prepare=*/2,
                                               RunMode::Adjacency::kTileSparse);
      }
      const bool gather = c.reuse == ReuseMode::kRowGather;
      const std::string tag = std::string(gnn::model_name(c.kind)) + " " +
                              std::to_string(c.bits) + "-bit" +
                              (gather ? "" : " tile-sweep aggregation") +
                              (streaming ? " streaming" : " precomputed");
      QgtcEngine engine(ds, cfg);
      set_num_threads(1);
      engine.set_execution(cfg.backend, 1);
      std::vector<MatrixI32> want;
      const EngineStats one = engine.run_quantized(1, &want);
      set_num_threads(4);
      for (const int workers : {1, 4}) {
        engine.set_execution(cfg.backend, workers);
        std::vector<MatrixI32> got;
        const EngineStats four = engine.run_quantized(1, &got);
        EXPECT_EQ(got, want) << tag << ", " << workers << " workers";
        EXPECT_EQ(four.bmma_ops, one.bmma_ops) << tag;
        EXPECT_EQ(four.tiles_jumped, one.tiles_jumped) << tag;
        EXPECT_EQ(four.gather_edges, one.gather_edges) << tag;
        EXPECT_EQ(four.code_macs, one.code_macs) << tag;
        EXPECT_EQ(four.int32_bytes_avoided, one.int32_bytes_avoided) << tag;
      }
      EXPECT_EQ(one.gather_edges > 0, gather) << tag;
      bool code_dot = false, sweep = !gather;
      for (int l = 0; l < cfg.model.num_layers; ++l) {
        const bool dot = engine.model().upd_plan(l).kernel == ReuseMode::kCodeDot;
        code_dot |= dot;
        sweep |= !dot;
      }
      EXPECT_EQ(one.code_macs > 0, code_dot) << tag;
      EXPECT_EQ(one.bmma_ops > 0, sweep) << tag;
    }
  }
  set_num_threads(saved);
}

TEST(TablePrinterTest, FormatsAlignedRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", TablePrinter::fmt(1.23456, 2)});
  t.add_row({"b", TablePrinter::fmt_pct(0.5, 1)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
}

TEST(TablePrinterTest, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace qgtc::core

// Dense+zero-tile-jump vs tile-sparse adjacency on the Figure 7(a)
// cluster-GCN workload, swept over batch sizes. The tile-CSR layout must be
// no slower than the dense flag-jump path while storing and shipping only
// ~the nonzero-tile ratio of the adjacency bytes (both paths execute the
// exact same tile schedule — bit-identical logits, identical bmma_ops).
// Parity gate: exits 1 when the dense and tile-CSR runs disagree on
// bmma_ops, tiles_jumped or gather_edges (each reported per mode).
#include "bench_util.hpp"

namespace qgtc::bench {
namespace {

struct ModeResult {
  double seconds = 0.0;
  i64 bmma_ops = 0;
  i64 tiles_jumped = 0;
  i64 gather_edges = 0;
  i64 adj_storage_bytes = 0;  // resident adjacency representation
  i64 adj_shipped_bytes = 0;  // adjacency share of the packed transfer
  double nz_tile_ratio = 0.0;
};

ModeResult run_mode(const Dataset& ds, core::EngineConfig cfg, bool sparse,
                    int rounds) {
  cfg.mode.adjacency = sparse ? core::RunMode::Adjacency::kTileSparse
                              : core::RunMode::Adjacency::kDenseJump;
  core::QgtcEngine engine(ds, cfg);
  ModeResult r;
  for (const auto& bdp : engine.batch_data()) {
    const auto& bd = *bdp;
    r.adj_storage_bytes += sparse ? bd.adj_tiles.bytes() : bd.adj.bytes();
  }
  r.adj_shipped_bytes = engine.transfer_accounting().adj_bytes;
  r.nz_tile_ratio = engine.nonzero_tile_ratio();
  const auto stats = engine.run_quantized(rounds);
  r.seconds = stats.forward_seconds;
  r.bmma_ops = stats.bmma_ops;
  r.tiles_jumped = stats.tiles_jumped;
  r.gather_edges = stats.gather_edges;
  return r;
}

int run(int argc, char** argv) {
  print_banner("Tile-sparse adjacency vs dense + zero-tile jump (Fig. 7a workload)",
               "structural sparsity stores/ships ~the nonzero-tile ratio "
               "(Fig. 8: 5-15%) at dense-or-better epoch time");

  const DatasetSpec spec = table1_spec("Proteins", products_scale());
  const Dataset ds = generate_dataset(spec);
  const int rounds = quick() ? 1 : 3;
  std::vector<i64> batch_sizes = {4, 8, 16, 32};
  if (quick()) batch_sizes = {8, 16};

  JsonReport json("sparse_adj", argc, argv);
  json.meta("workload", "fig7a_cluster_gcn/" + spec.name);
  json.meta("rounds", static_cast<double>(rounds));

  core::TablePrinter table({"batch", "dense ms", "sparse ms", "speedup",
                            "dense adj MB", "sparse adj MB", "bytes ratio",
                            "shipped dense MB", "shipped sparse MB",
                            "nz tile ratio", "gather edges dense",
                            "gather edges sparse"});
  bool counters_match = true;
  for (const i64 batch : batch_sizes) {
    core::EngineConfig cfg;
    cfg.model.kind = gnn::ModelKind::kClusterGCN;
    cfg.model.num_layers = 3;
    cfg.model.in_dim = spec.feature_dim;
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = spec.num_classes;
    cfg.model.feat_bits = 4;
    cfg.model.weight_bits = 4;
    cfg.num_partitions = quick() ? 256 : 1500;
    cfg.batch_size = batch;

    const ModeResult dense = run_mode(ds, cfg, /*sparse=*/false, rounds);
    const ModeResult sparse = run_mode(ds, cfg, /*sparse=*/true, rounds);
    const bool match = dense.bmma_ops == sparse.bmma_ops &&
                       dense.tiles_jumped == sparse.tiles_jumped &&
                       dense.gather_edges == sparse.gather_edges;
    counters_match = counters_match && match;

    const double nz = sparse.nz_tile_ratio;
    const double bytes_ratio = static_cast<double>(sparse.adj_storage_bytes) /
                               static_cast<double>(dense.adj_storage_bytes);
    table.add_row({std::to_string(batch), ms(dense.seconds), ms(sparse.seconds),
                   core::TablePrinter::fmt(dense.seconds / sparse.seconds, 2) + "x",
                   core::TablePrinter::fmt(dense.adj_storage_bytes / 1e6, 2),
                   core::TablePrinter::fmt(sparse.adj_storage_bytes / 1e6, 2),
                   core::TablePrinter::fmt_pct(bytes_ratio, 1),
                   core::TablePrinter::fmt(dense.adj_shipped_bytes / 1e6, 2),
                   core::TablePrinter::fmt(sparse.adj_shipped_bytes / 1e6, 2),
                   core::TablePrinter::fmt_pct(nz, 1),
                   std::to_string(dense.gather_edges),
                   std::to_string(sparse.gather_edges)});
    json.add_row(
        {},
        {{"batch_size", static_cast<double>(batch)},
         {"dense_ms", dense.seconds * 1e3},
         {"sparse_ms", sparse.seconds * 1e3},
         {"speedup", dense.seconds / sparse.seconds},
         {"dense_adj_bytes", static_cast<double>(dense.adj_storage_bytes)},
         {"sparse_adj_bytes", static_cast<double>(sparse.adj_storage_bytes)},
         {"adj_bytes_ratio", bytes_ratio},
         {"dense_shipped_bytes", static_cast<double>(dense.adj_shipped_bytes)},
         {"sparse_shipped_bytes", static_cast<double>(sparse.adj_shipped_bytes)},
         {"nonzero_tile_ratio", nz},
         {"dense_bmma_ops", static_cast<double>(dense.bmma_ops)},
         {"sparse_bmma_ops", static_cast<double>(sparse.bmma_ops)},
         {"dense_tiles_jumped", static_cast<double>(dense.tiles_jumped)},
         {"sparse_tiles_jumped", static_cast<double>(sparse.tiles_jumped)},
         {"dense_gather_edges", static_cast<double>(dense.gather_edges)},
         {"sparse_gather_edges", static_cast<double>(sparse.gather_edges)},
         {"bmma_ops_match", dense.bmma_ops == sparse.bmma_ops ? 1.0 : 0.0},
         {"counters_match", match ? 1.0 : 0.0}});
    std::cerr << "  [done] batch " << batch << "\n";
  }
  table.print(std::cout);
  std::cout << (counters_match
                    ? "\nSchedule parity: bmma_ops, tiles_jumped and "
                      "gather_edges identical between flag-based and "
                      "structural jumping.\n"
                    : "\nCOUNTER MISMATCH: the dense and tile-CSR runs "
                      "disagree on bmma_ops, tiles_jumped or gather_edges\n");
  return counters_match ? 0 : 1;
}

}  // namespace
}  // namespace qgtc::bench

int main(int argc, char** argv) { return qgtc::bench::run(argc, argv); }

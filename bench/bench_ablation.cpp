// Ablation bench (DESIGN.md §4): isolates each §4 optimisation on one
// mid-size dataset (artist, Cluster GCN, 4-bit): the row-gather aggregation
// against the tile-MMA sweep, zero-tile jumping, kernel fusion, non-zero
// tile reuse — full epoch latency per variant.
#include <iostream>

#include "bench_fig7_common.hpp"

int main() {
  using namespace qgtc;
  using core::TablePrinter;

  bench::print_banner(
      "Ablation — contribution of each QGTC kernel optimisation",
      "each of zero-tile jumping / fusion / tile reuse contributes; jumping "
      "dominates on sparse batched adjacencies");

  const auto spec = table1_spec(bench::quick() ? "Proteins" : "artist");
  const Dataset ds = generate_dataset(spec);

  core::EngineConfig ecfg;
  ecfg.model.kind = gnn::ModelKind::kClusterGCN;
  ecfg.model.num_layers = 3;
  ecfg.model.in_dim = spec.feature_dim;
  ecfg.model.hidden_dim = 16;
  ecfg.model.out_dim = spec.num_classes;
  ecfg.model.feat_bits = 4;
  ecfg.model.weight_bits = 4;
  ecfg.num_partitions = 1500;
  ecfg.batch_size = 16;
  const core::QgtcEngine engine(ds, ecfg);
  const auto& data = engine.batch_data();
  const i64 max_batches = env_i64("QGTC_MAX_BATCHES", bench::quick() ? 8 : 0);

  struct Variant {
    std::string name;
    bool jump;
    bool fused;
    ReuseMode reuse;
  };
  const std::vector<Variant> variants = {
      {"full (jump+fusion+row gather)", true, true, ReuseMode::kRowGather},
      {"tile aggregation (cross-tile)", true, true, ReuseMode::kCrossTile},
      {"no zero-tile jumping", false, true, ReuseMode::kCrossTile},
      {"no kernel fusion", true, false, ReuseMode::kCrossTile},
      {"no tile reuse (cross-bit)", true, false, ReuseMode::kCrossBit},
      {"none of the three", false, false, ReuseMode::kCrossBit},
  };

  TablePrinter table({"Variant", "epoch ms", "slowdown vs full"});
  double full_s = 0.0;
  for (const auto& v : variants) {
    gnn::GnnConfig mcfg = ecfg.model;
    mcfg.zero_tile_jump = v.jump;
    mcfg.fused_epilogue = v.fused;
    mcfg.reuse = v.reuse;
    gnn::QgtcModel model = gnn::QgtcModel::create(mcfg, ecfg.seed);
    model.calibrate(data.front()->adj, data.front()->features);
    std::vector<StackedBitTensor> inputs;
    inputs.reserve(data.size());
    for (const auto& bd : data) inputs.push_back(model.prepare_input(bd->features));
    const double s = bench::time_epoch(data, max_batches, [&](const auto& bd, i64 i) {
      (void)model.forward_prepared(bd.adj, v.jump ? &bd.tile_map : nullptr,
                                   inputs[static_cast<std::size_t>(i)]);
    });
    if (full_s == 0.0) full_s = s;
    table.add_row({v.name, bench::ms(s), TablePrinter::fmt(s / full_s, 2) + "x"});
    std::cerr << "  [done] " << v.name << "\n";
  }
  table.print(std::cout);
  std::cout << "\n(dataset: " << spec.name << ", Cluster GCN 3x16, 4-bit)\n";
  return 0;
}

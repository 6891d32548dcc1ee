// QGTC model runner: the per-batch quantized forward pass built on the
// kernel stack, plus the fp32 DGL-substitute path it is benchmarked against.
//
// Data layout discipline (paper §4.2's padding rules, applied per §4.5's
// fused hand-over):
//   Cluster GCN layer: X (kColMajorK) --agg--> X_new (kRowMajorK)
//                      --update+ReLU--> X' (kColMajorK, next layer's X)
//   Batched GIN layer: X (kRowMajorK) --update+ReLU--> Xu (kColMajorK)
//                      --agg--> X' (kRowMajorK, next layer's X)
// The final layer emits int32 logits (full precision for softmax, §4.5).
// Where the consuming stage runs a code kernel (row gather or code dot), a
// fused stage hands over a u8 code matrix instead of planes (DESIGN.md,
// "Code handoff"); the input to the first layer is always planes.
#pragma once

#include "bittensor/stacked.hpp"
#include "gnn/layers.hpp"
#include "graph/batching.hpp"
#include "kernels/anybit_mm.hpp"

namespace qgtc::gnn {

/// Per-batch kernel statistics surfaced to the engine / benches.
struct ForwardStats {
  i64 tiles_jumped = 0;
  i64 bmma_ops = 0;
  i64 int32_bytes_avoided = 0;
  i64 gather_edges = 0;
  i64 code_macs = 0;
};

/// The form a stage hands its output to the next stage in.
enum class StageOutput {
  kPlanes,  // packed bit planes in the layout of the consumer's operand
  kCodes,   // a u8 CodeMatrix, for a consumer that runs a code kernel
  kInt,     // int32: the logits stage
};

/// Per-stage kernel and epilogue plan (one per aggregate/update stage per
/// layer). build_plan fills it from the config at construction. Calibration
/// then sets rshift and out_bits from the observed ranges.
/// The same plan drives the fused epilogue and the unfused fallback, so the
/// two paths are bit-identical by construction.
struct EpiloguePlan {
  int rshift = 0;
  int out_bits = 8;
  tcsim::Activation act = tcsim::Activation::kIdentity;
  bool fused = true;
  /// The kernel the stage runs. Aggregation stages: kRowGather when the
  /// config asks for it and row_gather_applies to the stage; otherwise a
  /// tile sweep (the config's tile schedule, kCrossTile by default). Update
  /// stages: kCodeDot when code_dot_applies to the stage's operand bits;
  /// otherwise the tile sweep (kCrossTile).
  ReuseMode kernel = ReuseMode::kCrossTile;
  /// kInt for the logits stage; kCodes when the stage is fused and the next
  /// stage's kernel is a code kernel (is_code_kernel); kPlanes otherwise.
  StageOutput out_form = StageOutput::kPlanes;
};

class QgtcModel {
 public:
  /// Builds a model with Xavier weights quantized to cfg.weight_bits.
  /// Weight bit-planes are cached in the update-side (kColMajorK) layout —
  /// the §3.2 observation that W is reused across all subgraphs of a layer —
  /// and, up to 8 bits, packed once more as the code dot's CodePanels.
  static QgtcModel create(const GnnConfig& cfg, u64 seed);

  /// Builds from existing fp32 weights (e.g. QAT-trained).
  static QgtcModel from_weights(const GnnConfig& cfg,
                                std::vector<LayerWeights> weights);

  [[nodiscard]] const GnnConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<LayerWeights>& weights() const {
    return fp_weights_;
  }

  /// One-time requantization calibration (paper's fused epilogue needs the
  /// per-layer right-shift fixed before inference; we derive it from one
  /// representative batch, the standard post-training-calibration recipe).
  void calibrate(const BitMatrix& adj, const MatrixF& x);
  /// Calibration over a tile-CSR adjacency (the sparse-adjacency engine mode
  /// never materialises the dense batch matrix, calibration included).
  void calibrate(const TileSparseBitMatrix& adj, const MatrixF& x);
  [[nodiscard]] bool calibrated() const { return calibrated_; }

  /// Quantized QGTC forward for one batch: returns int32 logits
  /// (batch_nodes x out_dim). `adj` is the batch's binary adjacency
  /// (kRowMajorK); `x` the gathered fp32 features. Quantizes + packs the
  /// input inline — convenient, but production callers should pre-pack with
  /// `prepare_input` (the paper packs on the host before transfer, §4.6).
  /// `ctx` selects the substrate backend / counter sink (null = process
  /// default context).
  MatrixI32 forward_quantized(const BitMatrix& adj, const MatrixF& x,
                              ForwardStats* stats = nullptr,
                              const tcsim::ExecutionContext* ctx = nullptr) const;

  /// Host-side input packing: quantize to feat_bits and bit-decompose in the
  /// layout the first layer consumes (kColMajorK for GCN, kRowMajorK for GIN).
  [[nodiscard]] StackedBitTensor prepare_input(const MatrixF& x) const;

  /// Forward over a pre-packed input. `tile_map` (optional) is the cached
  /// zero-tile map of `adj`, reused across layers and bit-planes (§3.2).
  /// Every kernel in the pass runs on `ctx`'s backend and notes its counters
  /// into `ctx`'s sink; per-worker contexts make concurrent batch streams
  /// race-free (the engine's inter-batch parallelism).
  MatrixI32 forward_prepared(const BitMatrix& adj, const TileMap* tile_map,
                             const StackedBitTensor& x_planes,
                             ForwardStats* stats = nullptr,
                             const tcsim::ExecutionContext* ctx = nullptr) const;

  /// Forward over a tile-CSR adjacency: every aggregation consumes the
  /// stored tiles directly, so zero-tile jumping is structural (no flag map
  /// to build, cache or test). Bit-identical to the dense path.
  MatrixI32 forward_prepared(const TileSparseBitMatrix& adj,
                             const StackedBitTensor& x_planes,
                             ForwardStats* stats = nullptr,
                             const tcsim::ExecutionContext* ctx = nullptr) const;

  /// fp32 reference forward (the DGL-substitute path) over the batch's
  /// local CSR. Returns fp32 logits.
  MatrixF forward_fp32(const CsrGraph& local, const MatrixF& x) const;

  /// Requantizing stages the per-layer rewrite pass runs through the fused
  /// epilogue on each forward pass (0 when fusion is disabled).
  [[nodiscard]] int fused_stage_count() const;

  /// Per-layer stage plans (tests and diagnostics).
  [[nodiscard]] const EpiloguePlan& agg_plan(int l) const {
    return agg_plan_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const EpiloguePlan& upd_plan(int l) const {
    return upd_plan_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const EpiloguePlan& upd2_plan(int l) const {
    return upd2_plan_[static_cast<std::size_t>(l)];
  }

 private:
  GnnConfig cfg_;
  std::vector<LayerWeights> fp_weights_;
  std::vector<QuantParams> w_qparams_;
  std::vector<StackedBitTensor> w_planes_;   // kColMajorK, <= weight_bits planes
  std::vector<StackedBitTensor> w2_planes_;  // second MLP stage (gin_mlp)
  std::vector<PackedCodes> w_codes_;   // w_planes_ packed for the code dot
  std::vector<PackedCodes> w2_codes_;  // (empty above 8 weight bits)
  std::vector<EpiloguePlan> agg_plan_;       // per layer
  std::vector<EpiloguePlan> upd_plan_;       // per layer
  std::vector<EpiloguePlan> upd2_plan_;      // per layer, MLP stage 2
  bool calibrated_ = false;

  /// One stage of the forward pass; stages_ lists them in execution order
  /// (GCN: agg, upd per layer; GIN: upd, [upd2], agg per layer).
  struct Stage {
    enum Kind { kAgg, kUpd, kUpd2 } kind;
    int layer;
  };
  std::vector<Stage> stages_;

  [[nodiscard]] const EpiloguePlan& plan_of(const Stage& s) const;
  [[nodiscard]] EpiloguePlan& plan_of(const Stage& s);
  /// The weight operand of an update stage: its planes and packed codes.
  [[nodiscard]] StageWeight weight_of(const Stage& s) const;

  void quantize_weights();

  /// Fills the stage list and the per-stage activation/fusion decisions from
  /// the config (the rewrite pass; rshift/out_bits are completed by
  /// calibrate()).
  void build_plan();

  /// Shared forward/calibration bodies, generic over the adjacency
  /// representation (dense BitMatrix or TileSparseBitMatrix — the aggregate
  /// kernels overload on it). `tile_map` is dense-only; sparse passes null.
  template <typename Adj>
  MatrixI32 forward_impl(const Adj& adj, const TileMap* tile_map,
                         const StackedBitTensor& x_planes, ForwardStats* stats,
                         const tcsim::ExecutionContext* ctx) const;
  template <typename Adj>
  void calibrate_impl(const Adj& adj, const MatrixF& x);
};

}  // namespace qgtc::gnn

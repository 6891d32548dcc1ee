// Any-bitwidth matrix multiplication composed from 1-bit BMMs
// (paper §3, Algorithm 1), plus the two system optimisations that act at
// this level:
//
//  * non-zero tile reuse (§4.4): cross-tile reduction keeps a loaded A tile
//    resident while sweeping every bit-plane of the other operand;
//  * inter-layer kernel fusion (§4.5): ReLU / batch-norm / requantization +
//    bit-decomposition run inside the GEMM epilogue so hidden layers hand
//    packed low-bit planes straight to the next layer.
//
// Every entry point executes its tile ops on the substrate backend of the
// caller's ExecutionContext (BmmOptions::ctx; null = process default) and
// draws scratch from that context's per-thread workspace arena.
#pragma once

#include <vector>

#include "bittensor/code_matrix.hpp"
#include "bittensor/stacked.hpp"
#include "kernels/bmm.hpp"

namespace qgtc {

/// Stage kernels. Aggregations (1-bit A x s-bit X) take the first three:
/// Figure 6's two tile-MMA reduction orders, and a gather that adds the
/// neighbours' quantized codes directly. Updates (s-bit A x t-bit W) take
/// kCrossTile (the tile sweep) or kCodeDot. Every kernel computes the same
/// exact integers.
enum class ReuseMode {
  kCrossBit,   // (a): one full pass per bit-plane; A tiles re-loaded per bit
  kCrossTile,  // (b): per non-zero A tile, sweep all bit-planes (O(1) loads)
  kRowGather,  // add each row's neighbours' u8 code rows, read from the
               // adjacency's neighbour list (no tile MMAs); see
               // row_gather_applies for when it is allowed
  kCodeDot,    // updates only: unpack both operands to u8 codes and take
               // exact int32 dot products over the surviving K tiles (no
               // tile MMAs); see code_dot_applies for when it is allowed
};

/// True for the kernels that compute on u8 codes (kRowGather, kCodeDot):
/// they read a CodeMatrix operand in place and unpack a bit-plane one first.
[[nodiscard]] constexpr bool is_code_kernel(ReuseMode k) {
  return k == ReuseMode::kRowGather || k == ReuseMode::kCodeDot;
}

/// The activation operand of a stage (the A side of an update, the X side of
/// an aggregation) in the form its producer handed it over: packed bit
/// planes, or a u8 code matrix between code-kernel stages. Converts
/// implicitly from either. The tile sweeps read planes only; the code
/// kernels read either, and the code form saves them the unpack. It points
/// at the operand, which must outlive it (pass it as a call argument).
class StageInput {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  StageInput(const StackedBitTensor& planes) : planes_(&planes) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  StageInput(const CodeMatrix& codes) : codes_(&codes) {}

  /// Null unless the operand is in that form.
  [[nodiscard]] const StackedBitTensor* planes() const { return planes_; }
  [[nodiscard]] const CodeMatrix* codes() const { return codes_; }

  [[nodiscard]] i64 rows() const {
    return planes_ != nullptr ? planes_->rows() : codes_->rows;
  }
  [[nodiscard]] i64 cols() const {
    return planes_ != nullptr ? planes_->cols() : codes_->cols;
  }
  [[nodiscard]] int bits() const {
    return planes_ != nullptr ? planes_->bits() : codes_->bits;
  }

  /// The planes, or a throw naming `who` as a kernel that reads planes only.
  [[nodiscard]] const StackedBitTensor& need_planes(const char* who) const;

 private:
  const StackedBitTensor* planes_ = nullptr;
  const CodeMatrix* codes_ = nullptr;
};

/// A weight's u8 codes packed for the code dot's register-blocked GEMM
/// (tcsim::CodePanels: 16-column panels of i16 K pairs), owned. QgtcModel
/// packs each layer's W once, when it quantizes the weights.
struct PackedCodes {
  AlignedVector<i16> data;
  i64 k_pairs = 0;
  i64 panels = 0;

  /// Packs kColMajorK planes of at most 8 bits.
  [[nodiscard]] static PackedCodes pack(const StackedBitTensor& w);
  [[nodiscard]] tcsim::CodePanels view() const {
    return {data.data(), k_pairs, panels};
  }
};

/// The weight operand of an update stage: kColMajorK bit planes, plus W's
/// codes packed for the code dot when the caller keeps them. Without packed
/// codes the code dot packs the planes per call, into a workspace slot.
/// Converts implicitly from planes. It points at its operands, which must
/// outlive it (pass it as a call argument).
class StageWeight {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  StageWeight(const StackedBitTensor& planes) : planes_(&planes) {}
  /// `codes` (null, or packed from `planes`) is used when non-empty.
  StageWeight(const StackedBitTensor& planes, const PackedCodes* codes)
      : planes_(&planes),
        codes_(codes != nullptr && !codes->data.empty() ? codes : nullptr) {}

  [[nodiscard]] const StackedBitTensor& planes() const { return *planes_; }
  /// Null when the caller brought no packed codes.
  [[nodiscard]] const PackedCodes* codes() const { return codes_; }

  [[nodiscard]] i64 rows() const { return planes_->rows(); }
  [[nodiscard]] i64 cols() const { return planes_->cols(); }
  [[nodiscard]] int bits() const { return planes_->bits(); }

 private:
  const StackedBitTensor* planes_;
  const PackedCodes* codes_ = nullptr;
};

/// Fused epilogue applied to each finished int32 output tile or row (§4.5).
struct FusedEpilogue {
  /// Elementwise activation (identity / relu / relu6 / hardswish) applied in
  /// the requantized domain — see tcsim::apply_epilogue for exact semantics.
  tcsim::Activation act = tcsim::Activation::kIdentity;
  /// Per-output-column batch-norm folded to y = x * scale[j] + bias[j]
  /// (Eq. 8 with E/Var/gamma/beta pre-folded by the caller).
  bool use_bn = false;
  std::vector<float> bn_scale;
  std::vector<float> bn_bias;
  /// Requantization right-shift used by the to-bit output path:
  /// out = clamp(acc >> rshift, 0, 2^out_bits - 1). Calibrated per layer.
  int rshift = 0;
};

/// True when the code dot may run an `a_bits` x `b_bits` update with `opt`:
/// row_gather_applies to both operands (codes that fit in u8, AND combine,
/// zero-tile jumping, the int32 bound). sum_{a,b} 2^(a+b) popcount(A_a ∧
/// W_b) is then exactly the int32 dot product of the two operands' codes,
/// so the code dot is bit-identical to the tile sweep.
[[nodiscard]] bool code_dot_applies(int a_bits, int b_bits,
                                    const BmmOptions& opt);

/// bitMM2Int (paper §5): C = A(s-bit) x B(t-bit) with int32 output.
/// Straightforward Algorithm-1 composition: one shifted BMM pass per
/// (s, t) bit-plane pair.
MatrixI32 bitmm_to_int(const StackedBitTensor& a, const StackedBitTensor& b,
                       const BmmOptions& opt = {});

/// Fused single-pass variant of bitMM2Int: per output tile, all bit-plane
/// pairs and K tiles are reduced locally, then the epilogue (ReLU/BN) runs
/// before the single store. This is the production path for output layers.
/// `kernel` is kCrossTile (the tile sweep) or kCodeDot (which needs
/// code_dot_applies); both are bit-identical and jump the same tiles. A code
/// operand `a` needs kCodeDot, which reads `b`'s packed codes when it
/// carries them.
MatrixI32 bitmm_fused_int(StageInput a, StageWeight b,
                          const FusedEpilogue& epi = {},
                          const BmmOptions& opt = {},
                          ReuseMode kernel = ReuseMode::kCrossTile);

/// In-place variant of bitmm_fused_int writing into caller-provided storage
/// (typically the ExecutionContext workspace's int32_scratch — the unfused
/// fallback path allocates nothing per call). `out` must be a.rows x b.cols;
/// every element is assigned.
void bitmm_fused_int_into(StageInput a, StageWeight b,
                          MatrixI32& out, const FusedEpilogue& epi = {},
                          const BmmOptions& opt = {},
                          ReuseMode kernel = ReuseMode::kCrossTile);

/// bitMM2Bit (paper §5): fused any-bit MM whose epilogue requantizes to
/// `out_bits` and bit-decomposes straight into packed planes laid out as the
/// next layer's A operand (kRowMajorK). `out_pad` must be kOperand128 when
/// the result feeds another packed MM (§4.2's hidden-layer padding rule).
/// `out_layout` chooses which side of the next MM the result feeds:
/// kRowMajorK when it becomes the next A operand (GCN hidden layers),
/// kColMajorK when it becomes the next B operand (GIN update-then-aggregate).
/// `kernel` as for bitmm_fused_int.
StackedBitTensor bitmm_fused_bit(StageInput a, StageWeight b,
                                 int out_bits,
                                 const FusedEpilogue& epi = {},
                                 const BmmOptions& opt = {},
                                 PadPolicy out_pad = PadPolicy::kOperand128,
                                 BitLayout out_layout = BitLayout::kRowMajorK,
                                 ReuseMode kernel = ReuseMode::kCrossTile);

/// bitmm_fused_bit for a consumer that runs a code kernel: the requantized
/// output goes to the code matrix `out` (a.rows x b.cols, out.bits <= 8
/// output bits) instead of bit planes, padding zeroed per CodeMatrix.
/// `kernel` as for bitmm_fused_int.
void bitmm_fused_codes(StageInput a, StageWeight b,
                       const CodeMatrix& out, const FusedEpilogue& epi = {},
                       const BmmOptions& opt = {},
                       ReuseMode kernel = ReuseMode::kCrossTile);

/// True when the row gather may run an aggregation over `x_bits`-bit codes
/// with `opt`: zero-tile jumping on, the AND combine, codes that fit in u8,
/// and the int32 bound enforced (no allow_overflow). Σ_b 2^b·popcount(A_row
/// ∧ X_b) is then exactly the int32 sum of the neighbours' codes, so the
/// gather is bit-identical to the tile sweeps.
[[nodiscard]] bool row_gather_applies(int x_bits, const BmmOptions& opt);

/// An adjacency's neighbour lists, expanded once from its surviving tiles
/// so that every row gather over the adjacency reads them instead of
/// walking the tile bits again (the §4.4 non-zero tile reuse, applied
/// across layers). Row r's neighbours are ids[offsets[r], offsets[r + 1]),
/// ascending; row block tm jumped jumped[tm] zero tiles, which each gather
/// over the list counts as tiles_jumped. A non-owning view of the expanding
/// thread's workspace slots: valid until that thread expands again.
struct NeighbourList {
  const i64* offsets = nullptr;  // rows + 1 entries
  const i32* ids = nullptr;
  const i64* jumped = nullptr;   // blocks entries
  i64 rows = 0;
  i64 blocks = 0;                // the adjacency's 8-row blocks, padding included
  const void* source = nullptr;  // the adjacency it was expanded from

  [[nodiscard]] i64 edges() const { return offsets[rows]; }
};

/// Expands `a`'s neighbour lists into the calling thread's workspace: two
/// passes over row blocks (count, then fill) over the tiles that survive
/// zero-tile jumping per `opt` (its jump flag and tile_map), with ids
/// written by the backend's expand_bits hook.
[[nodiscard]] NeighbourList expand_neighbours(const BitMatrix& a,
                                              const BmmOptions& opt = {});
/// Over a tile-CSR adjacency: its stored tiles survive.
[[nodiscard]] NeighbourList expand_neighbours(const TileSparseBitMatrix& a,
                                              const BmmOptions& opt = {});

/// Neighbour aggregation X_new = A_bin x X with selectable schedule (the
/// Figure 10 ablation, plus kRowGather). int32 output. A code operand `x`
/// needs kRowGather, which reads opt.neighbours when set (it must have been
/// expanded from `a_bin`) and expands `a_bin` per call otherwise.
MatrixI32 aggregate_1bit(const BitMatrix& a_bin, StageInput x,
                         ReuseMode mode, const BmmOptions& opt = {});

/// Structurally sparse aggregation: A is a tile-CSR adjacency, so only the
/// stored tiles are ever visited — zero-tile jumping without a flag test or
/// dense scan. Bit-identical to the dense overload; substrate accounting
/// (bmma_ops / tiles_jumped) matches the flag-based jump exactly.
MatrixI32 aggregate_1bit(const TileSparseBitMatrix& a_bin,
                         StageInput x, ReuseMode mode,
                         const BmmOptions& opt = {});

/// In-place aggregation variants writing into caller-provided storage (same
/// contract as bitmm_fused_int_into; used by the unfused fallback path).
void aggregate_1bit_into(const BitMatrix& a_bin, StageInput x,
                         ReuseMode mode, MatrixI32& out,
                         const BmmOptions& opt = {});
void aggregate_1bit_into(const TileSparseBitMatrix& a_bin,
                         StageInput x, ReuseMode mode,
                         MatrixI32& out, const BmmOptions& opt = {});

/// Fused aggregation: requantizes X_new to `out_bits` inside the epilogue.
/// `mode` kRowGather drains each gathered row block through the epilogue
/// (at most 8 output bits); the tile schedules run the cross-tile sweep
/// (cross-bit has no fused form).
StackedBitTensor aggregate_fused_bit(const BitMatrix& a_bin,
                                     StageInput x, int out_bits,
                                     const FusedEpilogue& epi = {},
                                     const BmmOptions& opt = {},
                                     PadPolicy out_pad = PadPolicy::kOperand128,
                                     ReuseMode mode = ReuseMode::kCrossTile);

/// Fused aggregation over a tile-CSR adjacency (structural jumping).
StackedBitTensor aggregate_fused_bit(const TileSparseBitMatrix& a_bin,
                                     StageInput x, int out_bits,
                                     const FusedEpilogue& epi = {},
                                     const BmmOptions& opt = {},
                                     PadPolicy out_pad = PadPolicy::kOperand128,
                                     ReuseMode mode = ReuseMode::kCrossTile);

/// aggregate_fused_bit for a consumer that runs a code kernel: the
/// requantized output goes to the code matrix `out` (a_bin.rows x x.cols,
/// out.bits <= 8 output bits), padding zeroed per CodeMatrix.
void aggregate_fused_codes(const BitMatrix& a_bin, StageInput x,
                           const CodeMatrix& out, const FusedEpilogue& epi = {},
                           const BmmOptions& opt = {},
                           ReuseMode mode = ReuseMode::kCrossTile);
void aggregate_fused_codes(const TileSparseBitMatrix& a_bin, StageInput x,
                           const CodeMatrix& out, const FusedEpilogue& epi = {},
                           const BmmOptions& opt = {},
                           ReuseMode mode = ReuseMode::kCrossTile);

/// Right-shift such that `max_acc` lands inside `out_bits` bits.
int calibrate_rshift(i32 max_acc, int out_bits);

/// Throws if K * (2^s-1) * (2^t-1) could overflow the int32 accumulator.
void check_accumulator_bounds(i64 k, int s_bits, int t_bits);

}  // namespace qgtc

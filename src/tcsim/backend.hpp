// Substrate backend registry (see DESIGN.md, "Backend registry").
//
// The 1-bit BMM substrate is the single atomic primitive everything in QGTC
// composes from (paper §2.3, Eq. 7). This header separates the *op surface*
// the kernels program against from the *substrate* that executes the
// 8x8x128 tile contract, so the same kernel code can run on different
// micro-kernel implementations selected at runtime:
//
//   kScalar   the reference path: per-tile u64 AND/XOR + std::popcount,
//             exactly the semantics of tcsim::dot128. One A-fragment load
//             per output tile (no cross-tile reuse).
//   kSimd     vectorised AND+popcount over the full 8x8x128 tile (AVX-512
//             VPOPCNTDQ or AVX2 nibble-LUT when compiled in AND supported by
//             the running CPU; otherwise an unrolled u64x4 fallback). Same
//             per-tile A loads as kScalar — it isolates the micro-kernel win.
//   kBlocked  the same best-available tile micro-kernel, but the panel loop
//             keeps a decoded A fragment resident across a block of N tiles
//             (generalising §4.4's cross-tile reuse to every MM in the
//             stack). This is the default production backend.
//
// All backends produce bit-identical results: accumulation is exact integer
// popcount arithmetic in u64 lanes, truncated to the hardware's uint32-wrap
// contract at flush.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "common/defs.hpp"

namespace qgtc::tcsim {

enum class BackendKind { kScalar = 0, kSimd = 1, kBlocked = 2 };

/// Elementwise activation the fused epilogue applies in the requantized
/// integer domain (after the arithmetic right-shift, before the clamp).
/// kRelu6 and kHardswish use the quantized-domain constants 3/6 — the
/// standard integer approximations (hardswish(x) = x * clamp(x+3, 0, 6) / 6
/// with truncating division).
enum class Activation { kIdentity = 0, kRelu = 1, kRelu6 = 2, kHardswish = 3 };

/// Epilogue parameters for the requantizing flush variants. Applied to each
/// accumulator value after the uint32-wrap truncation:
///   w = v >> rshift (arithmetic);  w = act(w);
///   if (qmax >= 0)  w = clamp(w, 0, qmax).
/// qmax < 0 leaves the activated value unclamped (int32 outputs such as
/// final-layer logits).
struct EpilogueSpec {
  Activation act = Activation::kIdentity;
  int rshift = 0;
  i32 qmax = -1;

  /// True when the epilogue is the identity (flush_epilogue degenerates to a
  /// plain truncating store).
  [[nodiscard]] constexpr bool is_raw() const {
    return act == Activation::kIdentity && rshift == 0 && qmax < 0;
  }
};

/// THE shared epilogue semantics. Every backend's fused flush and the
/// standalone (unfused) requantization pass call this one definition, so the
/// fused and unfused model paths are bit-identical by construction.
/// ReLU commutes with the arithmetic shift, so this matches the historical
/// "activate, then shift, then clamp" order exactly. The arithmetic stays in
/// i32 (only hardswish's product widens), so row loops over it vectorize at
/// full i32 width; shifts of 32 or more leave the sign, as an i64 shift of
/// the value would.
[[nodiscard]] constexpr i32 apply_epilogue(i32 v, const EpilogueSpec& spec) {
  i32 w = spec.rshift < 32 ? v >> spec.rshift : (v < 0 ? -1 : 0);
  switch (spec.act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      if (w < 0) w = 0;
      break;
    case Activation::kRelu6:
      w = w < 0 ? 0 : (w > 6 ? 6 : w);
      break;
    case Activation::kHardswish: {
      const i32 g = w < -3 ? 0 : (w > 3 ? 6 : w + 3);
      w = static_cast<i32>(static_cast<i64>(w) * g / 6);
      break;
    }
  }
  if (spec.qmax >= 0) w = w < 0 ? 0 : (w > spec.qmax ? spec.qmax : w);
  return w;
}

/// Decoded A-operand tile (8 rows x 128 bits) in backend-specific layout.
/// Sized for the widest layout (8 rows broadcast to 512-bit vectors).
struct alignas(64) AFragment {
  u64 lanes[kTileM * 8];
};

/// u64 accumulator lanes per output tile. Opaque layout — only the backend
/// that filled an accumulator block may flush it. Sized for the widest
/// layout (AVX2/AVX-512 keep per-lane partial sums: 128 u64 per tile).
inline constexpr i64 kTileAccLanes = 128;

/// One entry of a sparse A-tile schedule: the stored tile's first word (its
/// 8 rows sit `a_stride` u32 apart) plus the K-tile index that selects the
/// matching 128-bit slice of every B column. Both the tile-CSR layout (tiles
/// stored contiguously, stride kTileKWords) and the dense layout (tiles in
/// place, stride k_words) describe their surviving tiles this way, so
/// flag-based and structural zero-tile jumping execute one schedule format.
struct SparseTileRef {
  const u32* a;
  i64 k_tile;
};

/// Destination descriptor for flush_planes: where one 8x8 output tile's
/// requantized values land as packed bit planes. `planes[b]` points at the
/// word of plane `b` that holds the tile's first line; successive lines sit
/// `line_stride` u32 apart, and the tile's 8-lane bit group occupies bit
/// offset `shift` within the word (tile extents divide the 32-bit packing,
/// so a group never straddles words). With `transpose == false` a line is an
/// output row and a lane an output column (kRowMajorK planes); with
/// `transpose == true` the roles swap (kColMajorK). `lines`/`lanes` bound
/// the logically valid region (<= 8 each) so edge tiles skip padding.
struct PlaneSink {
  u32* const* planes;
  i64 line_stride;
  int shift;
  int out_bits;
  i64 lines;
  i64 lanes;
  bool transpose;
};

/// Scatter a requantized 8x8 tile (`q`, row-major i32[64], values already in
/// [0, 2^out_bits)) into packed bit planes — one word RMW per (line, plane).
/// Shared by every backend's flush_planes and the unfused fallback paths.
/// Per line and byte slice of the values, the line's (up to) 8 lane bytes
/// narrow into a u64 and one 8x8 bit transpose yields 8 planes' lane bits.
inline void scatter_planes(const PlaneSink& s, const i32* q) {
  for (i64 l = 0; l < s.lines; ++l) {
    for (int b0 = 0; b0 < s.out_bits; b0 += 8) {
      u64 x = 0;
      for (i64 i = 0; i < s.lanes; ++i) {
        const i32 v = s.transpose ? q[i * 8 + l] : q[l * 8 + i];
        x |= static_cast<u64>((static_cast<u32>(v) >> b0) & 0xffu) << (8 * i);
      }
      x = transpose8x8_bits(x);
      for (int b = b0; b < s.out_bits && b < b0 + 8; ++b) {
        const u32 lane = static_cast<u32>((x >> (8 * (b - b0))) & 0xffu);
        if (lane != 0) s.planes[b][l * s.line_stride] |= lane << s.shift;
      }
    }
  }
}

/// kByteSpread[v] holds bit i of v in the low bit of byte i: one packed
/// plane byte spread into the bit-b slot of eight u8 codes (shifted by b).
inline constexpr std::array<u64, 256> kByteSpread = [] {
  std::array<u64, 256> t{};
  for (int v = 0; v < 256; ++v) {
    for (int i = 0; i < 8; ++i) {
      t[static_cast<std::size_t>(v)] |= static_cast<u64>((v >> i) & 1) << (8 * i);
    }
  }
  return t;
}();

/// Output columns of one code GEMM panel: one 512-bit vector of i32.
inline constexpr i64 kCodePanelCols = 16;

/// A weight matrix's u8 codes packed for code_gemm_rows: `panels` panels of
/// kCodePanelCols output columns. Panel p holds, for each K pair kk <
/// k_pairs, its 16 columns' codes W[2 kk][j] and W[2 kk + 1][j] as adjacent
/// i16, 64 bytes per K pair: the operand of one vpdpwssd against a
/// broadcast A pair. Element (p, kk, j, h) sits at
/// data[((p * k_pairs + kk) * kCodePanelCols + j) * 2 + h]; columns past the
/// matrix are zero. A non-owning view.
struct CodePanels {
  const i16* data = nullptr;
  i64 k_pairs = 0;
  i64 panels = 0;

  [[nodiscard]] const i16* panel(i64 p) const {
    return data + p * k_pairs * 2 * kCodePanelCols;
  }
};

/// A run of consecutive K pairs [begin, end) a code GEMM reduces over.
struct KRun {
  i64 begin;
  i64 end;
};

/// A substrate micro-kernel implementation. Stateless and shared across
/// threads: all mutable state lives in caller-provided scratch (the
/// ExecutionContext workspace arena), so one registry instance serves every
/// thread of every context.
class SubstrateBackend {
 public:
  virtual ~SubstrateBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Output-column tiles the kernel loop should keep resident per decoded
  /// A fragment (the §4.4 cross-tile blocking factor; 1 = reload A per tile).
  [[nodiscard]] virtual i64 panel_width() const = 0;

  /// Decode one 8x128 A tile (rows `a_stride` u32 apart) into `frag`.
  virtual void load_a(AFragment& frag, const u32* a, i64 a_stride) const = 0;

  /// acc[kTileAccLanes] += (A_frag x B_tile) << shift — one 8x8x128 tile op.
  /// B columns are `b_stride` u32 apart. `use_xor` selects the +-1 binary
  /// network combine (BmmaOp::kXor) instead of AND.
  virtual void mma(u64* acc, const AFragment& frag, const u32* b, i64 b_stride,
                   int shift, bool use_xor) const = 0;

  /// out[8x8, rows `out_stride` i32 apart] (+)= acc, truncating each element
  /// to the substrate's exact uint32-wrap contract.
  virtual void flush(i32* out, i64 out_stride, const u64* acc) const = 0;

  /// Epilogue-parameterized flush (the CUTLASS-style fused epilogue, mapped
  /// to the flush hook — see DESIGN.md): out[8x8] = apply_epilogue(wrap(acc))
  /// while the accumulator lanes are still hot. Assigns (does not add); the
  /// uint32-wrap truncation precedes the epilogue, preserving the substrate
  /// contract. The base implementation drains through flush(); BackendImpl
  /// overrides it with the micro-kernel's fused lane reduction.
  virtual void flush_epilogue(i32* out, i64 out_stride, const u64* acc,
                              const EpilogueSpec& spec) const;

  /// Plane-writer flush: requantize the tile with `spec` and scatter the
  /// resulting bits straight into packed output planes (`sink`) — the §4.5
  /// re-pack executed inside the flush, so no int32 intermediate is ever
  /// materialised. `spec.qmax` must be >= 0 (values must fit the planes).
  virtual void flush_planes(const PlaneSink& sink, const u64* acc,
                            const EpilogueSpec& spec) const;

  /// Sparse-schedule execution: sweeps a row block's surviving-tile list
  /// across a panel of `nb` consecutive output-column tiles, keeping each
  /// decoded A fragment resident for the whole panel (the §4.4 blocking,
  /// applied to an explicit tile list instead of a dense K loop). `b_cols`
  /// points at the first panel column's packed words (columns `b_stride` u32
  /// apart); entry `t` multiplies against words b_cols + blk*8*b_stride +
  /// tiles[t].k_tile*kTileKWords. `acc` holds nb * kTileAccLanes lanes.
  ///
  /// The base implementation composes load_a + mma, so every backend —
  /// kScalar, kSimd, kBlocked — consumes the same sparse schedule; overrides
  /// may fuse further.
  virtual void mma_tile_list(u64* acc, const SparseTileRef* tiles, i64 n_tiles,
                             i64 a_stride, const u32* b_cols, i64 b_stride,
                             i64 nb, int shift, bool use_xor) const;

  /// Row-gather hook: acc[j] += codes[rows[t] * stride + j] for every listed
  /// row t and every j < width — one output row's neighbour sum over u8
  /// code rows `stride` bytes apart. `width` is a multiple of kCodeRowAlign
  /// and at most `stride`; acc holds `width` lanes. Exact int32 arithmetic
  /// (callers bound the sum), so every override is bit-identical to the base
  /// scalar loop.
  virtual void add_code_rows(i32* acc, const u8* codes, i64 stride, i64 width,
                             const i32* rows, i64 count) const;

  /// Bit expansion hook: writes base + i for each set bit i of `bits`,
  /// ascending, to out[0, count) and returns count (the popcount). Writes
  /// nothing past out + count. The neighbour-list expansion calls it once
  /// per 64-bit half of a stored adjacency tile row.
  virtual i64 expand_bits(u64 bits, i32 base, i32* out) const;

  /// Plane unpack hook: kColMajorK bit planes (at most 8) into row-major u8
  /// codes. For v < rows and j < cols,
  ///   codes[v * stride + j] = sum over b < bits of 2^b * bit v of line j of
  ///   plane b,
  /// where line j of plane b starts at planes[b] + j * line_bytes and bit v
  /// is bit v % 8 of its byte v / 8 (the u32 packing on a little-endian
  /// host). rows and cols are multiples of 8, rows at most 8 * line_bytes.
  /// Writes nothing else.
  virtual void unpack_codes(u8* codes, i64 stride, const u8* const* planes,
                            int bits, i64 line_bytes, i64 rows,
                            i64 cols) const;

  /// Code GEMM hook: for i < rows and every column j of `w`'s panels,
  ///   out[i * out_stride + j] = sum over the runs r, K pairs kk in
  ///   [r.begin, r.end) and h < 2 of a[i * a_stride + 2 kk + h] * W[2 kk + h][j],
  /// one row block's exact int32 products over u8 codes widened to i16 (`a`
  /// holds the block's rows, `a_stride` i16 apart; W comes packed as
  /// CodePanels). rows <= 8. Assigns w.panels * kCodePanelCols values per
  /// row. Exact int32 arithmetic (callers bound the sum), so every override
  /// is bit-identical to the base scalar loop.
  virtual void code_gemm_rows(i32* out, i64 out_stride, const i16* a,
                              i64 a_stride, i64 rows, const CodePanels& w,
                              const KRun* runs, i64 n_runs) const;
};

/// Column granularity of the row gather's unpacked code rows (and of the
/// add_code_rows width): one 128-bit load of u8 codes.
inline constexpr i64 kCodeRowAlign = 16;

/// K granularity of the code dot's K runs: 32 u8 codes (16 K pairs).
inline constexpr i64 kCodeDotAlign = 32;

/// Registry lookup. Instances are process-lifetime singletons; kSimd and
/// kBlocked resolve their micro-kernel once at first use from compile-time
/// availability + runtime CPU feature detection.
[[nodiscard]] const SubstrateBackend& backend(BackendKind k);

/// Display name ("scalar", "simd", "blocked").
[[nodiscard]] const char* backend_name(BackendKind k);

/// Parse a backend name; throws std::invalid_argument on unknown names.
[[nodiscard]] BackendKind parse_backend(std::string_view name);

/// Display name ("identity", "relu", "relu6", "hardswish").
[[nodiscard]] const char* activation_name(Activation a);

/// Parse an activation name; throws std::invalid_argument on unknown names.
[[nodiscard]] Activation parse_activation(std::string_view name);

/// All registered kinds, in registry order.
[[nodiscard]] std::vector<BackendKind> all_backends();

/// True when kSimd/kBlocked resolved to vector micro-kernels on this CPU
/// (false = the portable u64 fallback is active).
[[nodiscard]] bool simd_active();

/// Process default: QGTC_BACKEND env var ("scalar" | "simd" | "blocked") or
/// kBlocked. Read once.
[[nodiscard]] BackendKind default_backend();

}  // namespace qgtc::tcsim

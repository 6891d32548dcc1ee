#include "kernels/anybit_mm.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "parallel/parallel_for.hpp"

namespace qgtc {

void check_accumulator_bounds(i64 k, int s_bits, int t_bits) {
  const i64 max_val = k * ((i64{1} << s_bits) - 1) * ((i64{1} << t_bits) - 1);
  QGTC_CHECK(max_val <= i64{INT32_MAX},
             "K * (2^s-1) * (2^t-1) exceeds the int32 accumulator range; "
             "split K or reduce bitwidths");
}

int calibrate_rshift(i32 max_acc, int out_bits) {
  if (max_acc <= 0) return 0;
  const int bits_needed =
      32 - std::countl_zero(static_cast<u32>(max_acc));
  return bits_needed > out_bits ? bits_needed - out_bits : 0;
}

bool row_gather_applies(int x_bits, const BmmOptions& opt) {
  // The gather reads and writes packed plane words byte by byte (byte k of a
  // line = bits 8k..8k+7), which is the u32 packing only on little-endian
  // hosts; others keep the tile sweep.
  return std::endian::native == std::endian::little && opt.zero_tile_jump &&
         opt.op == tcsim::BmmaOp::kAnd &&
         !opt.allow_overflow && x_bits >= 1 && x_bits <= 8;
}

bool code_dot_applies(int a_bits, int b_bits, const BmmOptions& opt) {
  return row_gather_applies(a_bits, opt) && row_gather_applies(b_bits, opt);
}

namespace {

/// Collect the plane pointers of a stacked tensor.
std::vector<const BitMatrix*> plane_ptrs(const StackedBitTensor& t) {
  std::vector<const BitMatrix*> p;
  p.reserve(static_cast<std::size_t>(t.bits()));
  for (int b = 0; b < t.bits(); ++b) p.push_back(&t.plane(b));
  return p;
}

/// True when the 8x128 tile (tm, tk) is zero in every A plane.
bool tile_zero_all_planes(const std::vector<const BitMatrix*>& ap, i64 tm,
                          i64 tk) {
  for (const BitMatrix* p : ap) {
    if (!tcsim::tile_is_zero(p->row_words(tm * kTileM) + tk * kTileKWords,
                             p->k_words())) {
      return false;
    }
  }
  return true;
}

/// Dense A-side tile source: one or more kRowMajorK bit planes whose
/// surviving tiles come from the §4.3 flag test (precomputed map or inline
/// OR+ballot). Tile handles are K-tile indices.
class DensePlanesSource {
 public:
  /// True when absent tiles are structurally skipped regardless of
  /// opt.zero_tile_jump (dense planes: no — the flag test gates skipping).
  static constexpr bool kStructural = false;

  explicit DensePlanesSource(std::vector<const BitMatrix*> ap)
      : ap_(std::move(ap)) {
    QGTC_CHECK(ap_.front()->layout() == BitLayout::kRowMajorK,
               "A planes must be kRowMajorK");
  }

  [[nodiscard]] i64 tiles_m() const { return ap_.front()->padded_rows() / kTileM; }
  [[nodiscard]] i64 tiles_k() const { return ap_.front()->padded_cols() / kTileK; }
  [[nodiscard]] i64 padded_k() const { return ap_.front()->padded_cols(); }
  [[nodiscard]] int planes() const { return static_cast<int>(ap_.size()); }

  /// Upper bound on row block tm's survivor count (dense: every K tile may
  /// survive the flag test).
  [[nodiscard]] i64 survivor_bound(i64) const { return tiles_k(); }

  /// Appends row block tm's surviving tile handles; returns the jump count.
  i64 survivors(i64 tm, const BmmOptions& opt, std::vector<i64>& list) const {
    i64 jumped = 0;
    for (i64 tk = 0; tk < tiles_k(); ++tk) {
      if (opt.zero_tile_jump) {
        const bool nz = (opt.tile_map != nullptr && planes() == 1)
                            ? opt.tile_map->is_nonzero(tm, tk)
                            : !tile_zero_all_planes(ap_, tm, tk);
        if (!nz) {
          ++jumped;
          continue;
        }
      }
      list.push_back(tk);
    }
    return jumped;
  }

  [[nodiscard]] i64 tile_col(i64 h) const { return h; }
  [[nodiscard]] const u32* tile_ptr(int plane, i64 tm, i64 h) const {
    const BitMatrix& p = *ap_[static_cast<std::size_t>(plane)];
    return p.row_words(tm * kTileM) + h * kTileKWords;
  }
  [[nodiscard]] i64 tile_stride(int plane) const {
    return ap_[static_cast<std::size_t>(plane)]->k_words();
  }

 private:
  std::vector<const BitMatrix*> ap_;
};

/// Structurally sparse A-side tile source: the tile-CSR adjacency. The
/// stored-tile range *is* the surviving list (no scan, no flags); handles
/// are payload indices, always single-plane (the adjacency is 1-bit).
class SparseAdjSource {
 public:
  static constexpr bool kStructural = true;

  explicit SparseAdjSource(const TileSparseBitMatrix& a) : a_(&a) {}

  [[nodiscard]] i64 tiles_m() const { return a_->tiles_m(); }
  [[nodiscard]] i64 tiles_k() const { return a_->tiles_k(); }
  [[nodiscard]] i64 padded_k() const { return a_->padded_cols(); }
  [[nodiscard]] int planes() const { return 1; }

  /// Exact: the tile-CSR already stores each row's schedule length.
  [[nodiscard]] i64 survivor_bound(i64 tm) const { return a_->row_nnz(tm); }

  i64 survivors(i64 tm, const BmmOptions&, std::vector<i64>& list) const {
    for (i64 t = a_->row_begin(tm); t < a_->row_end(tm); ++t) {
      list.push_back(t);
    }
    return a_->tiles_k() - a_->row_nnz(tm);
  }

  [[nodiscard]] i64 tile_col(i64 h) const { return a_->tile_col(h); }
  [[nodiscard]] const u32* tile_ptr(int, i64, i64 h) const {
    return a_->tile_words(h);
  }
  [[nodiscard]] i64 tile_stride(int) const { return kTileKWords; }

 private:
  const TileSparseBitMatrix* a_;
};

/// Row blocks whose rows share one u32 word of a kColMajorK output line (32
/// rows). Kernels writing kColMajorK planes hand each worker whole groups of
/// them, so no output plane word is shared between threads.
constexpr i64 kRowBlocksPerWord = kWordBits / kTileM;

/// Single-pass any-bit tile sweep (the §4.4 cross-tile reduction generalised
/// to multi-bit A): for each output tile, every surviving K tile is decoded
/// once per A plane and multiplied against every B plane before moving on.
/// The A operand comes through a tile source (dense planes or the tile-CSR
/// adjacency), so flag-based and structural zero-tile jumping share this one
/// sweep. `consume(tm, tn, acc)` receives the finished tile's raw u64
/// accumulator lanes (backend-opaque layout) and drains them through one of
/// the backend flush variants — plain, epilogue, or plane-writer — so the
/// epilogue runs while the lanes are still hot and no intermediate i32 tile
/// is staged in the sweep itself. Tile ops execute on the context's
/// substrate backend; scratch comes from the per-thread workspace arena.
///
/// The parallel work item is one row block when the consumer writes
/// row-owned data (int32 rows / kRowMajorK planes), and a group of
/// kRowBlocksPerWord row blocks when it writes kColMajorK planes
/// (`col_major_out`), so plane words are never shared between threads.
template <typename Src, typename Consume>
void fused_tile_sweep(const Src& src, const std::vector<const BitMatrix*>& bp,
                      const BmmOptions& opt, bool col_major_out,
                      Consume&& consume) {
  const BitMatrix& b0 = *bp.front();
  QGTC_CHECK(b0.layout() == BitLayout::kColMajorK, "B planes must be kColMajorK");
  QGTC_CHECK(src.padded_k() == b0.padded_rows(),
             "padded K extents of A and B differ");
  QGTC_CHECK(!((opt.zero_tile_jump || Src::kStructural) &&
               opt.op == tcsim::BmmaOp::kXor),
             "zero-tile jumping is incompatible with the XOR combine");

  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 tiles_m = src.tiles_m();
  const i64 tiles_n = b0.padded_cols() / kTileN;
  const int sa = src.planes();
  const int sb = static_cast<int>(bp.size());
  const bool use_xor = (opt.op == tcsim::BmmaOp::kXor);

  // Surviving tile handles per row block, shared across the N sweep. The
  // list-of-lists lives in the calling thread's arena; inner threads only
  // read it.
  std::vector<std::vector<i64>>& k_lists = ctx.workspace().k_lists(tiles_m);
  parallel_for(0, tiles_m, [&](i64 tm) {
    auto& list = k_lists[static_cast<std::size_t>(tm)];
    list.reserve(static_cast<std::size_t>(src.survivor_bound(tm)));
    const i64 jumped = src.survivors(tm, opt, list);
    if (jumped > 0) {
      tcsim::Counters delta;
      delta.tiles_jumped = static_cast<u64>(jumped);
      ctx.note(delta);
    }
  });

  // Cross-tile reduction (§4.4), panel form: a decoded A fragment (one per
  // surviving (tk, plane)) is swept across the backend's panel of
  // output-column tiles and every B bit-plane before the next A tile is
  // touched. This both realises the paper's O(1)-loads claim and amortises
  // per-output-tile bookkeeping over the whole K reduction. The per-tile
  // backends (panel width 1) degenerate to cross-bit-style reloads.
  const i64 width = be.panel_width();
  const i64 chunk = col_major_out ? kRowBlocksPerWord : 1;
  parallel_for_dynamic(0, tiles_m, chunk, [&](i64 tm) {
    const auto& k_list = k_lists[static_cast<std::size_t>(tm)];
    u64* acc = ctx.workspace().acc_lanes(width * tcsim::kTileAccLanes);
    tcsim::AFragment frag;
    i64 a_loads = 0;
    for (i64 tn0 = 0; tn0 < tiles_n; tn0 += width) {
      const i64 nb = std::min<i64>(width, tiles_n - tn0);
      std::memset(acc, 0,
                  static_cast<std::size_t>(nb * tcsim::kTileAccLanes) * sizeof(u64));
      for (const i64 h : k_list) {
        const i64 tk = src.tile_col(h);
        for (int ab = 0; ab < sa; ++ab) {
          be.load_a(frag, src.tile_ptr(ab, tm, h), src.tile_stride(ab));
          ++a_loads;
          for (i64 b = 0; b < nb; ++b) {
            for (int bb = 0; bb < sb; ++bb) {
              const BitMatrix& pb = *bp[static_cast<std::size_t>(bb)];
              be.mma(acc + b * tcsim::kTileAccLanes, frag,
                     pb.col_words((tn0 + b) * kTileN) + tk * kTileKWords,
                     pb.k_words(), ab + bb, use_xor);
            }
          }
        }
      }
      for (i64 b = 0; b < nb; ++b) {
        consume(tm, tn0 + b,
                static_cast<const u64*>(acc + b * tcsim::kTileAccLanes));
      }
    }
    tcsim::Counters delta;
    const u64 kt = static_cast<u64>(k_list.size());
    delta.bmma_ops =
        kt * static_cast<u64>(sa) * static_cast<u64>(sb) * static_cast<u64>(tiles_n);
    delta.frag_loads_a = static_cast<u64>(a_loads);
    delta.frag_loads_b =
        kt * static_cast<u64>(sa) * static_cast<u64>(sb) * static_cast<u64>(tiles_n);
    ctx.note(delta);
  });
}

/// Applies the optional per-column batch-norm fold (Eq. 8) to one raw
/// accumulator value. The activation itself runs in tcsim::apply_epilogue.
inline i32 apply_bn(i32 v, i64 col, const FusedEpilogue& epi) {
  if (epi.use_bn && col < static_cast<i64>(epi.bn_scale.size())) {
    const float f = static_cast<float>(v) * epi.bn_scale[static_cast<std::size_t>(col)] +
                    epi.bn_bias[static_cast<std::size_t>(col)];
    v = static_cast<i32>(std::lround(f));
  }
  return v;
}

/// The int path applies the activation but never requantizes (rshift/clamp
/// stay with the to-bit path), matching the historical epilogue contract.
constexpr tcsim::EpilogueSpec int_spec(const FusedEpilogue& epi) {
  return tcsim::EpilogueSpec{epi.act, 0, -1};
}

/// Stores one finished raw 8x8 tile `q` (row-major) into a row-major i32
/// matrix of logical extent m x n through the BN fold and the int path's
/// epilogue. Assigns every covered element.
inline void store_int_tile(i32* out, i64 m, i64 n, i64 tm, i64 tn,
                           const i32* q, const FusedEpilogue& epi) {
  const tcsim::EpilogueSpec spec = int_spec(epi);
  const i64 r0 = tm * kTileM, c0 = tn * kTileN;
  const i64 rows_here = std::min<i64>(kTileM, m - r0);
  const i64 cols_here = std::min<i64>(kTileN, n - c0);
  for (i64 i = 0; i < rows_here; ++i) {
    for (i64 j = 0; j < cols_here; ++j) {
      const i32 v = apply_bn(q[i * kTileN + j], c0 + j, epi);
      out[(r0 + i) * n + c0 + j] = tcsim::apply_epilogue(v, spec);
    }
  }
}

/// Drains one finished accumulator tile into a row-major i32 matrix of
/// logical extent m x n. Interior tiles (full 8x8, no BN) flush straight into
/// the output with the backend's fused epilogue; edge and BN tiles stage
/// through one stack tile. Assigns every covered element.
inline void drain_int_tile(const tcsim::SubstrateBackend& be, i32* out, i64 m,
                           i64 n, i64 tm, i64 tn, const u64* acc,
                           const FusedEpilogue& epi) {
  const i64 r0 = tm * kTileM, c0 = tn * kTileN;
  if (!epi.use_bn && r0 + kTileM <= m && c0 + kTileN <= n) {
    be.flush_epilogue(out + r0 * n + c0, n, acc, int_spec(epi));
    return;
  }
  alignas(64) i32 tmp[kTileM * kTileN];
  be.flush_epilogue(tmp, kTileN, acc, tcsim::EpilogueSpec{});
  store_int_tile(out, m, n, tm, tn, tmp, epi);
}

/// Notes the m x n int32 activation matrix a fused to-bit stage never
/// materialised (nor re-read for requantize and decompose).
void note_int32_avoided(const tcsim::ExecutionContext& ctx, i64 m, i64 n) {
  tcsim::Counters avoided;
  avoided.int32_bytes_avoided =
      static_cast<u64>(m) * static_cast<u64>(n) * sizeof(i32);
  ctx.note(avoided);
}

/// kSpread[v] holds bit i of v in the low bit of byte i.
constexpr std::array<u64, 256> kSpread = [] {
  std::array<u64, 256> t{};
  for (int v = 0; v < 256; ++v) {
    for (int i = 0; i < 8; ++i) {
      t[static_cast<std::size_t>(v)] |= static_cast<u64>((v >> i) & 1) << (8 * i);
    }
  }
  return t;
}();

/// In-place transpose of an 8x8 byte matrix held as eight u64 rows (byte j
/// of r[i] is element (i, j)): three rounds of block swaps.
inline void transpose8x8_bytes(u64 (&r)[8]) {
  const auto swap_blocks = [&](int dist, int bits, u64 mask) {
    for (int i = 0; i < 8; ++i) {
      if ((i & dist) != 0) continue;
      const u64 t = ((r[i] >> bits) ^ r[i + dist]) & mask;
      r[i + dist] ^= t;
      r[i] ^= t << bits;
    }
  };
  swap_blocks(1, 8, 0x00FF00FF00FF00FFull);
  swap_blocks(2, 16, 0x0000FFFF0000FFFFull);
  swap_blocks(4, 32, 0x00000000FFFFFFFFull);
}

/// Unpacks kColMajorK bit planes (<= 8) into node-major u8 code rows:
/// codes[v * width + j] = sum_b 2^b * x_b[v][j] for every padded K row v and
/// j < width (columns past the planes' 8-aligned extent read as zero). Works
/// on 8 nodes x 8 columns at a time: one byte per plane per column spreads
/// into eight code bytes, then an 8x8 byte transpose makes them node-major.
void unpack_codes(const StackedBitTensor& x, u8* codes, i64 width) {
  const int bits = x.bits();
  const i64 groups = x.plane(0).padded_rows() / 8;
  const i64 col_bytes = x.plane(0).k_words() * static_cast<i64>(sizeof(u32));
  const i64 cols8 = pad8(x.cols());
  const u8* planes[8];
  for (int b = 0; b < bits; ++b) {
    planes[b] = reinterpret_cast<const u8*>(x.plane(b).data());
  }
  for (i64 g = 0; g < groups; ++g) {
    u8* dst = codes + g * 8 * width;
    for (i64 c0 = 0; c0 < cols8; c0 += 8) {
      u64 r[8];
      for (int c = 0; c < 8; ++c) {
        const i64 at = (c0 + c) * col_bytes + g;
        u64 v = 0;
        for (int b = 0; b < bits; ++b) v |= kSpread[planes[b][at]] << b;
        r[c] = v;
      }
      transpose8x8_bytes(r);
      for (int i = 0; i < 8; ++i) std::memcpy(dst + i * width + c0, &r[i], 8);
    }
    if (cols8 < width) {
      for (int i = 0; i < 8; ++i) {
        std::memset(dst + i * width + cols8, 0,
                    static_cast<std::size_t>(width - cols8));
      }
    }
  }
}

/// Entries set_bit_positions may write past the positions it reports.
constexpr i64 kWalkSlack = 4;

/// Writes base + (index of each set bit of `bits`), ascending, to `out` and
/// returns how many there are. The first four writes are unconditional (the
/// stored adjacency tiles hold a few bits per 64-bit word), so most words
/// cost no data-dependent branch; up to kWalkSlack entries past the count
/// are scratch.
inline i64 set_bit_positions(u64 bits, i32 base, i32* out) {
  const int count = std::popcount(bits);
  for (int k = 0; k < 4; ++k) {
    out[k] = base + std::countr_zero(bits);
    bits &= bits - 1;
  }
  for (int k = 4; k < count; ++k) {
    out[k] = base + std::countr_zero(bits);
    bits &= bits - 1;
  }
  return count;
}

/// Row-gather aggregation: the integer identity behind Algorithm 1,
/// sum_b 2^b * popcount(A_row & X_b) = sum over set bits v of A_row of
/// code(X[v]), executed literally. X's planes are unpacked once to u8 code
/// rows (calling thread, workspace code slot); then one parallel region over
/// row blocks walks the set bits of each surviving A tile (the same tile
/// source and survivors() call as fused_tile_sweep, so tiles_jumped
/// matches) and adds the neighbours' code rows into an int32 row through
/// the backend's add_code_rows hook. `drain(row, acc)` receives each
/// finished output row (acc holds round_up(n, kCodeRowAlign) lanes; only the
/// first n are meaningful) and may overwrite it. No tile MMAs execute.
template <typename Src, typename Drain>
void row_gather(const Src& src, const StackedBitTensor& x, i64 m,
                const BmmOptions& opt, Drain&& drain) {
  QGTC_CHECK(row_gather_applies(x.bits(), opt),
             "row gather needs zero-tile jumping, the AND combine, codes of "
             "at most 8 bits and the int32 bound (no allow_overflow)");
  QGTC_CHECK(x.layout() == BitLayout::kColMajorK, "B planes must be kColMajorK");
  QGTC_CHECK(src.padded_k() == x.plane(0).padded_rows(),
             "padded K extents of A and B differ");

  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 width = round_up(x.cols(), tcsim::kCodeRowAlign);
  u8* codes = ctx.workspace().code_scratch(src.padded_k() * width);
  unpack_codes(x, codes, width);

  const i64 tiles_m = src.tiles_m();
  std::vector<std::vector<i64>>& k_lists = ctx.workspace().k_lists(tiles_m);
  parallel_for_dynamic(0, tiles_m, /*chunk=*/1, [&](i64 tm) {
    auto& list = k_lists[static_cast<std::size_t>(tm)];
    list.reserve(static_cast<std::size_t>(src.survivor_bound(tm)));
    tcsim::Counters delta;
    delta.tiles_jumped = static_cast<u64>(src.survivors(tm, opt, list));
    // Accumulator row, then room for one row's neighbours across the list
    // (plus the walk's unconditional-write slack).
    i32* acc = ctx.workspace().gather_lanes(
        width + static_cast<i64>(list.size()) * kTileK + kWalkSlack);
    i32* nbrs = acc + width;
    const i64 rows_here = std::min<i64>(kTileM, m - tm * kTileM);
    for (i64 i = 0; i < rows_here; ++i) {
      i64 count = 0;
      for (const i64 h : list) {
        const u32* words = src.tile_ptr(0, tm, h) + i * src.tile_stride(0);
        const i32 base = static_cast<i32>(src.tile_col(h) * kTileK);
        for (int half = 0; half < 2; ++half) {
          u64 bits;
          std::memcpy(&bits, words + 2 * half, sizeof(bits));
          count += set_bit_positions(bits, base + 64 * half, nbrs + count);
        }
      }
      std::memset(acc, 0, static_cast<std::size_t>(width) * sizeof(i32));
      be.add_code_rows(acc, codes, width, nbrs, count);
      drain(tm * kTileM + i, acc);
      delta.gather_edges += static_cast<u64>(count);
    }
    ctx.note(delta);
  });
}

/// Requantizes acc[0, n) in place through the shared tcsim::apply_epilogue.
/// The activation is a template argument so the epilogue's switch folds away
/// and the loop vectorizes.
template <tcsim::Activation A>
void requantize_row(i32* acc, i64 n, const tcsim::EpilogueSpec& spec) {
  const tcsim::EpilogueSpec s{A, spec.rshift, spec.qmax};
  for (i64 j = 0; j < n; ++j) acc[j] = tcsim::apply_epilogue(acc[j], s);
}

/// Row-gather drain (the row form of flush_planes): requantizes one finished
/// row of `n` values in place (0 <= qmax <= 255, so out_bits <= 8) and
/// writes bit b of value j to bit j % 8 of planes[b][j / 8]. Assigns whole
/// bytes; each plane row must hold round_up(n, 8) bits.
void flush_row_planes(i32* acc, i64 n, const tcsim::EpilogueSpec& spec,
                      u8* const* planes, int out_bits) {
  using tcsim::Activation;
  switch (spec.act) {
    case Activation::kIdentity:
      requantize_row<Activation::kIdentity>(acc, n, spec);
      break;
    case Activation::kRelu:
      requantize_row<Activation::kRelu>(acc, n, spec);
      break;
    case Activation::kRelu6:
      requantize_row<Activation::kRelu6>(acc, n, spec);
      break;
    case Activation::kHardswish:
      requantize_row<Activation::kHardswish>(acc, n, spec);
      break;
  }
  // 64 columns at a time: narrow the values to bytes (zero past n), then
  // per 8 columns an 8x8 bit transpose (three delta swaps) of the u64 whose
  // byte i is column i leaves plane b's bits in byte b. Byte order is
  // little-endian, as everywhere in the row gather.
  for (i64 c0 = 0; c0 < n; c0 += 64) {
    const i64 cn = std::min<i64>(n - c0, 64);
    u8 vals[64] = {};
    for (i64 j = 0; j < cn; ++j) vals[j] = static_cast<u8>(acc[c0 + j]);
    for (i64 j0 = 0; j0 < cn; j0 += 8) {
      u64 x;
      std::memcpy(&x, vals + j0, sizeof(x));
      x = transpose8x8_bits(x);
      for (int b = 0; b < out_bits; ++b) {
        planes[b][(c0 + j0) / 8] = static_cast<u8>(x >> (8 * b));
      }
    }
  }
}

/// Fused to-bit row gather: each finished row is requantized through the
/// shared epilogue and packed straight into its row of every kRowMajorK
/// output plane, so no int32 activation matrix is materialised (§4.5).
template <typename Src>
StackedBitTensor gather_bit_output(const Src& src, const StackedBitTensor& x,
                                   i64 m, int out_bits, const FusedEpilogue& epi,
                                   const BmmOptions& opt, PadPolicy out_pad) {
  QGTC_CHECK(out_bits <= 8, "the row gather's fused output packs at most 8 bits");
  const i64 n = x.cols();
  StackedBitTensor out =
      StackedBitTensor::zeros(m, n, out_bits, BitLayout::kRowMajorK, out_pad);
  const i32 qmax = static_cast<i32>((u32{1} << out_bits) - 1);
  const tcsim::EpilogueSpec spec{epi.act, epi.rshift, qmax};
  row_gather(src, x, m, opt, [&](i64 r, i32* acc) {
    if (epi.use_bn) {
      for (i64 j = 0; j < n; ++j) acc[j] = apply_bn(acc[j], j, epi);
    }
    u8* rows[8];
    for (int b = 0; b < out_bits; ++b) {
      rows[b] = reinterpret_cast<u8*>(out.plane(b).row_words(r));
    }
    flush_row_planes(acc, n, spec, rows, out_bits);
  });
  note_int32_avoided(resolve_ctx(opt), m, n);
  return out;
}

/// Unpacks lines [line0, line0 + count) of bit planes (<= 8) into line-major
/// u8 codes over the padded K extent: codes[l * K + k] = sum_b 2^b *
/// x_b[line0 + l][k]. Both layouts keep a line's K bits contiguous and lines
/// back to back, so each plane byte spreads into eight consecutive code
/// bytes with no transpose (little-endian, as everywhere in the row gather).
void unpack_line_codes(const StackedBitTensor& x, i64 line0, i64 count,
                       u8* codes) {
  const int bits = x.bits();
  const i64 line_bytes = x.plane(0).k_words() * static_cast<i64>(sizeof(u32));
  const u8* planes[8];
  for (int b = 0; b < bits; ++b) {
    planes[b] =
        reinterpret_cast<const u8*>(x.plane(b).data()) + line0 * line_bytes;
  }
  for (i64 at = 0; at < count * line_bytes; ++at) {
    u64 v = 0;
    for (int b = 0; b < bits; ++b) v |= kSpread[planes[b][at]] << b;
    std::memcpy(codes + 8 * at, &v, sizeof(v));
  }
}

/// Code-dot update: the integer identity behind Algorithm 1 for two
/// multi-bit operands, sum_{a,b} 2^(a+b) * popcount(A_a & W_b) = sum_k
/// code_A[k] * code_W[k], executed literally. W's planes are unpacked once
/// to u8 code lines (calling thread, workspace code slot). Then one parallel
/// region over groups of kRowBlocksPerWord row blocks unpacks the group's A
/// lines (the worker's row-code slot), takes the same survivors() call as
/// fused_tile_sweep (so tiles_jumped matches), and runs the backend's
/// dot_code_tile over each run of consecutive surviving K tiles, clipped to
/// the logical K (codes past it are zero padding). `drain(tm, tn, tile)`
/// receives each finished 8x8 tile, row-major raw int32, and may overwrite
/// it. No tile MMAs execute.
template <typename Drain>
void code_dot(const StackedBitTensor& a, const StackedBitTensor& w,
              const BmmOptions& opt, Drain&& drain) {
  QGTC_CHECK(code_dot_applies(a.bits(), w.bits(), opt),
             "the code dot needs zero-tile jumping, the AND combine, operands "
             "of at most 8 bits and the int32 bound (no allow_overflow)");
  QGTC_CHECK(w.layout() == BitLayout::kColMajorK, "B planes must be kColMajorK");
  const DensePlanesSource src(plane_ptrs(a));
  const i64 kp = src.padded_k();
  QGTC_CHECK(kp == w.plane(0).padded_rows(), "padded K extents of A and B differ");

  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 tiles_m = src.tiles_m();
  const i64 tiles_n = w.plane(0).padded_cols() / kTileN;
  const i64 k_end = round_up(a.cols(), tcsim::kCodeDotAlign);
  u8* w_codes = ctx.workspace().code_scratch(w.plane(0).lines() * kp);
  unpack_line_codes(w, 0, w.plane(0).lines(), w_codes);

  std::vector<std::vector<i64>>& k_lists = ctx.workspace().k_lists(tiles_m);
  parallel_for_dynamic(0, ceil_div(tiles_m, kRowBlocksPerWord), /*chunk=*/1,
                       [&](i64 g) {
    const i64 tm0 = g * kRowBlocksPerWord;
    const i64 tm1 = std::min(tiles_m, tm0 + kRowBlocksPerWord);
    u8* a_codes = ctx.workspace().row_codes((tm1 - tm0) * kTileM * kp);
    unpack_line_codes(a, tm0 * kTileM, (tm1 - tm0) * kTileM, a_codes);
    tcsim::Counters delta;
    for (i64 tm = tm0; tm < tm1; ++tm) {
      auto& list = k_lists[static_cast<std::size_t>(tm)];
      list.reserve(static_cast<std::size_t>(src.survivor_bound(tm)));
      delta.tiles_jumped += static_cast<u64>(src.survivors(tm, opt, list));
      const u8* a_blk = a_codes + (tm - tm0) * kTileM * kp;
      for (i64 tn = 0; tn < tiles_n; ++tn) {
        const u8* w_blk = w_codes + tn * kTileN * kp;
        alignas(64) i32 tile[kTileM * kTileN] = {};
        i64 codes = 0;
        for (std::size_t r = 0; r < list.size();) {
          // One run of consecutive surviving K tiles is one code range.
          std::size_t e = r + 1;
          while (e < list.size() && list[e] == list[e - 1] + 1) ++e;
          const i64 k0 = list[r] * kTileK;
          const i64 len = std::min(list[e - 1] * kTileK + kTileK, k_end) - k0;
          be.dot_code_tile(tile, a_blk + k0, kp, w_blk + k0, kp, len);
          codes += len;
          r = e;
        }
        drain(tm, tn, tile);
        delta.code_macs += static_cast<u64>(kTileM * kTileN * codes);
      }
    }
    ctx.note(delta);
  });
}

/// The fused to-bit epilogue's per-tile writer: requantizes one finished
/// 8x8 output tile and scatters its bits into the output planes — one word
/// RMW per (line, plane); an 8-bit lane always sits inside one u32 word
/// because tile extents divide the 32-bit packing.
class PlaneTileWriter {
 public:
  PlaneTileWriter(StackedBitTensor& out, const FusedEpilogue& epi)
      : out_(&out),
        epi_(&epi),
        spec_{epi.act, epi.rshift,
              static_cast<i32>((u32{1} << out.bits()) - 1)} {}

  /// Drains a tile sweep's accumulator lanes through the backend's plane
  /// flush; BN tiles stage through one i32 tile (raw drain, fp32 fold, then
  /// the shared epilogue + scatter).
  void operator()(const tcsim::SubstrateBackend& be, i64 tm, i64 tn,
                  const u64* acc) const {
    u32* planes[32];
    const tcsim::PlaneSink sink = sink_for(tm, tn, planes);
    if (!epi_->use_bn) {
      be.flush_planes(sink, acc, spec_);
      return;
    }
    alignas(64) i32 q[kTileM * kTileN];
    be.flush_epilogue(q, kTileN, acc, tcsim::EpilogueSpec{});
    requantize_scatter(sink, tm, tn, q);
  }

  /// Drains an exact raw int32 tile (row-major; overwritten).
  void operator()(i64 tm, i64 tn, i32* q) const {
    u32* planes[32];
    requantize_scatter(sink_for(tm, tn, planes), tm, tn, q);
  }

 private:
  StackedBitTensor* out_;
  const FusedEpilogue* epi_;
  tcsim::EpilogueSpec spec_;

  [[nodiscard]] i64 rows_here(i64 tm) const {
    return std::min<i64>(kTileM, out_->rows() - tm * kTileM);
  }
  [[nodiscard]] i64 cols_here(i64 tn) const {
    return std::min<i64>(kTileN, out_->cols() - tn * kTileN);
  }

  tcsim::PlaneSink sink_for(i64 tm, i64 tn, u32** planes) const {
    const int out_bits = out_->bits();
    const i64 line_stride = out_->plane(0).k_words();
    if (out_->layout() == BitLayout::kRowMajorK) {
      // Line = output row; 8 column bits land in word (tn*8)/32 at offset
      // (tn%4)*8.
      const i64 word = (tn * kTileN) / kWordBits;
      for (int b = 0; b < out_bits; ++b) {
        planes[b] = out_->plane(b).row_words(tm * kTileM) + word;
      }
      return {planes,        line_stride,
              static_cast<int>((tn * kTileN) % kWordBits),
              out_bits,      rows_here(tm),
              cols_here(tn), /*transpose=*/false};
    }
    // Line = output column; 8 row bits land in word (tm*8)/32 at offset
    // (tm%4)*8.
    const i64 word = (tm * kTileM) / kWordBits;
    for (int b = 0; b < out_bits; ++b) {
      planes[b] = out_->plane(b).col_words(tn * kTileN) + word;
    }
    return {planes,        line_stride,
            static_cast<int>((tm * kTileM) % kWordBits),
            out_bits,      cols_here(tn),
            rows_here(tm), /*transpose=*/true};
  }

  void requantize_scatter(const tcsim::PlaneSink& sink, i64 tm, i64 tn,
                          i32* q) const {
    for (i64 i = 0; i < rows_here(tm); ++i) {
      for (i64 j = 0; j < cols_here(tn); ++j) {
        const i32 v = apply_bn(q[i * kTileN + j], tn * kTileN + j, *epi_);
        q[i * kTileN + j] = tcsim::apply_epilogue(v, spec_);
      }
    }
    tcsim::scatter_planes(sink, q);
  }
};

/// Rejects kernels the update entry points do not run.
void check_update_kernel(ReuseMode kernel) {
  QGTC_CHECK(kernel == ReuseMode::kCrossTile || kernel == ReuseMode::kCodeDot,
             "update stages run the tile sweep (kCrossTile) or the code dot");
}

}  // namespace

MatrixI32 bitmm_to_int(const StackedBitTensor& a, const StackedBitTensor& b,
                       const BmmOptions& opt) {
  QGTC_CHECK(a.cols() == b.rows(), "bitmm_to_int: inner dimensions differ");
  if (!opt.allow_overflow) check_accumulator_bounds(a.cols(), a.bits(), b.bits());
  MatrixI32& padded = resolve_ctx(opt).workspace().padded_acc(
      pad8(a.plane(0).rows()), b.plane(0).padded_cols());
  for (int ab = 0; ab < a.bits(); ++ab) {
    for (int bb = 0; bb < b.bits(); ++bb) {
      bmm_accumulate(a.plane(ab), b.plane(bb), padded, ab + bb, opt);
    }
  }
  return slice_logical(padded, a.rows(), b.cols());
}

MatrixI32 bitmm_fused_int(const StackedBitTensor& a, const StackedBitTensor& b,
                          const FusedEpilogue& epi, const BmmOptions& opt,
                          ReuseMode kernel) {
  MatrixI32 out(a.rows(), b.cols());
  bitmm_fused_int_into(a, b, out, epi, opt, kernel);
  return out;
}

void bitmm_fused_int_into(const StackedBitTensor& a, const StackedBitTensor& b,
                          MatrixI32& out, const FusedEpilogue& epi,
                          const BmmOptions& opt, ReuseMode kernel) {
  QGTC_CHECK(a.cols() == b.rows(), "bitmm_fused_int: inner dimensions differ");
  QGTC_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
             "bitmm_fused_int_into: output shape mismatch");
  check_update_kernel(kernel);
  if (!opt.allow_overflow) check_accumulator_bounds(a.cols(), a.bits(), b.bits());
  const i64 m = a.rows(), n = b.cols();
  if (kernel == ReuseMode::kCodeDot) {
    code_dot(a, b, opt, [&](i64 tm, i64 tn, const i32* q) {
      store_int_tile(out.data(), m, n, tm, tn, q, epi);
    });
    return;
  }
  const tcsim::SubstrateBackend& be = resolve_ctx(opt).backend();
  fused_tile_sweep(DensePlanesSource(plane_ptrs(a)), plane_ptrs(b), opt,
                   /*col_major_out=*/false,
                   [&](i64 tm, i64 tn, const u64* acc) {
                     drain_int_tile(be, out.data(), m, n, tm, tn, acc, epi);
                   });
}

namespace {

/// Shared implementation of the fused to-bit epilogue over the tile sweep:
/// requantize each tile and scatter its bits into the output planes. `src`
/// is the A-side tile source (dense planes or the tile-CSR adjacency).
template <typename Src>
StackedBitTensor fused_bit_output(const Src& src,
                                  const std::vector<const BitMatrix*>& bp,
                                  i64 m, i64 n, int out_bits,
                                  const FusedEpilogue& epi,
                                  const BmmOptions& opt, PadPolicy out_pad,
                                  BitLayout out_layout) {
  // Build output planes directly; bit-decomposition never materialises an
  // int32 matrix in "global memory" (§4.5).
  StackedBitTensor out =
      StackedBitTensor::zeros(m, n, out_bits, out_layout, out_pad);
  const PlaneTileWriter write(out, epi);
  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  fused_tile_sweep(src, bp, opt, out_layout == BitLayout::kColMajorK,
                   [&](i64 tm, i64 tn, const u64* acc) {
                     write(be, tm, tn, acc);
                   });
  note_int32_avoided(ctx, m, n);
  return out;
}

}  // namespace

StackedBitTensor bitmm_fused_bit(const StackedBitTensor& a,
                                 const StackedBitTensor& b, int out_bits,
                                 const FusedEpilogue& epi,
                                 const BmmOptions& opt, PadPolicy out_pad,
                                 BitLayout out_layout, ReuseMode kernel) {
  QGTC_CHECK(a.cols() == b.rows(), "bitmm_fused_bit: inner dimensions differ");
  QGTC_CHECK(out_bits >= 1 && out_bits <= 31, "out_bits must be in [1,31]");
  check_update_kernel(kernel);
  if (!opt.allow_overflow) check_accumulator_bounds(a.cols(), a.bits(), b.bits());
  if (kernel == ReuseMode::kCodeDot) {
    StackedBitTensor out = StackedBitTensor::zeros(a.rows(), b.cols(), out_bits,
                                                   out_layout, out_pad);
    const PlaneTileWriter write(out, epi);
    code_dot(a, b, opt, [&](i64 tm, i64 tn, i32* q) { write(tm, tn, q); });
    note_int32_avoided(resolve_ctx(opt), a.rows(), b.cols());
    return out;
  }
  return fused_bit_output(DensePlanesSource(plane_ptrs(a)), plane_ptrs(b),
                          a.rows(), b.cols(), out_bits, epi, opt, out_pad,
                          out_layout);
}

namespace {

/// Shared aggregate_1bit body, generic over the adjacency representation
/// (bmm_accumulate overloads on it) and its tile source. `padded_m` is the
/// representation's padded row extent for the cross-bit accumulator.
/// Assigns every element of `out` (a_bin.rows x x.cols).
template <typename AdjT, typename Src>
void aggregate_1bit_into_impl(const AdjT& a_bin, i64 padded_m, const Src& src,
                              const StackedBitTensor& x, ReuseMode mode,
                              MatrixI32& out, const BmmOptions& opt) {
  QGTC_CHECK(a_bin.cols() == x.rows(), "aggregate_1bit: dimension mismatch");
  QGTC_CHECK(out.rows() == a_bin.rows() && out.cols() == x.cols(),
             "aggregate_1bit_into: output shape mismatch");
  QGTC_CHECK(mode != ReuseMode::kCodeDot, "the code dot is an update kernel");
  if (!opt.allow_overflow) check_accumulator_bounds(a_bin.cols(), 1, x.bits());
  const i64 m = a_bin.rows(), n = x.cols();
  if (mode == ReuseMode::kRowGather) {
    row_gather(src, x, m, opt, [&](i64 r, const i32* acc) {
      std::memcpy(out.data() + r * n, acc,
                  static_cast<std::size_t>(n) * sizeof(i32));
    });
    return;
  }
  if (mode == ReuseMode::kCrossBit) {
    // Figure 6(a): one complete BMM pass per bit-plane; every surviving A
    // tile is re-loaded for each plane.
    MatrixI32& padded = resolve_ctx(opt).workspace().padded_acc(
        padded_m, x.plane(0).padded_cols());
    for (int b = 0; b < x.bits(); ++b) {
      bmm_accumulate(a_bin, x.plane(b), padded, b, opt);
    }
    for (i64 r = 0; r < m; ++r) {
      std::memcpy(out.data() + r * n, padded.data() + r * padded.cols(),
                  static_cast<std::size_t>(n) * sizeof(i32));
    }
    return;
  }
  // Figure 6(b): cross-tile reduction via the fused sweep with a single
  // 1-bit A plane (the stored tiles only, for the tile-CSR source).
  const tcsim::SubstrateBackend& be = resolve_ctx(opt).backend();
  fused_tile_sweep(src, plane_ptrs(x), opt, /*col_major_out=*/false,
                   [&](i64 tm, i64 tn, const u64* acc) {
                     drain_int_tile(be, out.data(), m, n, tm, tn, acc,
                                    FusedEpilogue{});
                   });
}

}  // namespace

MatrixI32 aggregate_1bit(const BitMatrix& a_bin, const StackedBitTensor& x,
                         ReuseMode mode, const BmmOptions& opt) {
  MatrixI32 out(a_bin.rows(), x.cols());
  aggregate_1bit_into_impl(a_bin, pad8(a_bin.rows()),
                           DensePlanesSource({&a_bin}), x, mode, out, opt);
  return out;
}

MatrixI32 aggregate_1bit(const TileSparseBitMatrix& a_bin,
                         const StackedBitTensor& x, ReuseMode mode,
                         const BmmOptions& opt) {
  MatrixI32 out(a_bin.rows(), x.cols());
  aggregate_1bit_into_impl(a_bin, a_bin.padded_rows(), SparseAdjSource(a_bin),
                           x, mode, out, opt);
  return out;
}

void aggregate_1bit_into(const BitMatrix& a_bin, const StackedBitTensor& x,
                         ReuseMode mode, MatrixI32& out,
                         const BmmOptions& opt) {
  aggregate_1bit_into_impl(a_bin, pad8(a_bin.rows()),
                           DensePlanesSource({&a_bin}), x, mode, out, opt);
}

void aggregate_1bit_into(const TileSparseBitMatrix& a_bin,
                         const StackedBitTensor& x, ReuseMode mode,
                         MatrixI32& out, const BmmOptions& opt) {
  aggregate_1bit_into_impl(a_bin, a_bin.padded_rows(), SparseAdjSource(a_bin),
                           x, mode, out, opt);
}

namespace {

/// Shared aggregate_fused_bit body, generic over the adjacency tile source.
template <typename AdjT, typename Src>
StackedBitTensor aggregate_fused_bit_impl(const AdjT& a_bin, const Src& src,
                                          const StackedBitTensor& x,
                                          int out_bits, const FusedEpilogue& epi,
                                          const BmmOptions& opt,
                                          PadPolicy out_pad, ReuseMode mode) {
  QGTC_CHECK(a_bin.cols() == x.rows(), "aggregate_fused_bit: dimension mismatch");
  QGTC_CHECK(out_bits >= 1 && out_bits <= 31, "out_bits must be in [1,31]");
  QGTC_CHECK(mode != ReuseMode::kCodeDot, "the code dot is an update kernel");
  if (!opt.allow_overflow) check_accumulator_bounds(a_bin.cols(), 1, x.bits());
  if (mode == ReuseMode::kRowGather) {
    return gather_bit_output(src, x, a_bin.rows(), out_bits, epi, opt, out_pad);
  }
  return fused_bit_output(src, plane_ptrs(x), a_bin.rows(), x.cols(), out_bits,
                          epi, opt, out_pad, BitLayout::kRowMajorK);
}

}  // namespace

StackedBitTensor aggregate_fused_bit(const BitMatrix& a_bin,
                                     const StackedBitTensor& x, int out_bits,
                                     const FusedEpilogue& epi,
                                     const BmmOptions& opt, PadPolicy out_pad,
                                     ReuseMode mode) {
  return aggregate_fused_bit_impl(a_bin, DensePlanesSource({&a_bin}), x,
                                  out_bits, epi, opt, out_pad, mode);
}

StackedBitTensor aggregate_fused_bit(const TileSparseBitMatrix& a_bin,
                                     const StackedBitTensor& x, int out_bits,
                                     const FusedEpilogue& epi,
                                     const BmmOptions& opt, PadPolicy out_pad,
                                     ReuseMode mode) {
  return aggregate_fused_bit_impl(a_bin, SparseAdjSource(a_bin), x, out_bits,
                                  epi, opt, out_pad, mode);
}

}  // namespace qgtc

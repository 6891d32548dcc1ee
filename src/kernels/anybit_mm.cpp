#include "kernels/anybit_mm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

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

/// apply_bn over one output row's first n values, in place.
inline void apply_bn_row(i32* acc, i64 n, const FusedEpilogue& epi) {
  if (!epi.use_bn) return;
  for (i64 j = 0; j < n; ++j) acc[j] = apply_bn(acc[j], j, epi);
}

/// The int path applies the activation but never requantizes (rshift/clamp
/// stay with the to-bit path), matching the historical epilogue contract.
constexpr tcsim::EpilogueSpec int_spec(const FusedEpilogue& epi) {
  return tcsim::EpilogueSpec{epi.act, 0, -1};
}

/// Requantizes acc[0, n) in place through the shared tcsim::apply_epilogue.
/// The activation is a template argument so the epilogue's switch folds away
/// and the loop vectorizes.
template <tcsim::Activation A>
void requantize_row(i32* acc, i64 n, const tcsim::EpilogueSpec& spec) {
  const tcsim::EpilogueSpec s{A, spec.rshift, spec.qmax};
  for (i64 j = 0; j < n; ++j) acc[j] = tcsim::apply_epilogue(acc[j], s);
}

void requantize_row(i32* acc, i64 n, const tcsim::EpilogueSpec& spec) {
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

/// The row form of store_int_tile: stores one finished raw output row `acc`
/// (n values; overwritten) to `out` through the BN fold and the int path's
/// epilogue.
inline void store_int_row(i32* out, i32* acc, i64 n, const FusedEpilogue& epi) {
  apply_bn_row(acc, n, epi);
  requantize_row(acc, n, int_spec(epi));
  std::memcpy(out, acc, static_cast<std::size_t>(n) * sizeof(i32));
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

static_assert(kCodeAlign == tcsim::kCodeDotAlign &&
                  kCodeAlign % tcsim::kCodeRowAlign == 0 &&
                  kCodeAlign == kRowBlocksPerWord * kTileM,
              "a code matrix's padding must cover the code kernels' reads");

/// An aggregation operand in code form: a code matrix read in place, or
/// kColMajorK bit planes unpacked (the backend's unpack_codes hook) into the
/// calling thread's code slot. The unpack writes every byte of the codes'
/// padded extent (the planes' padding is zero).
CodeMatrix codes_of(StageInput x, const tcsim::ExecutionContext& ctx) {
  if (x.codes() != nullptr) return *x.codes();
  const StackedBitTensor& p = *x.planes();
  QGTC_CHECK(p.layout() == BitLayout::kColMajorK, "B planes must be kColMajorK");
  const CodeMatrix codes = CodeMatrix::over(
      ctx.workspace().code_scratch(CodeMatrix::bytes_for(p.rows(), p.cols())),
      p.rows(), p.cols(), p.bits());
  const u8* planes[8];
  for (int b = 0; b < p.bits(); ++b) {
    planes[b] = reinterpret_cast<const u8*>(p.plane(b).data());
  }
  const i64 cols8 = pad8(p.cols());
  ctx.backend().unpack_codes(codes.data, codes.stride, planes, p.bits(),
                             p.plane(0).k_words() * static_cast<i64>(sizeof(u32)),
                             codes.padded_rows(), cols8);
  for (i64 r = 0; r < codes.padded_rows(); ++r) {
    std::memset(codes.row(r) + cols8, 0,
                static_cast<std::size_t>(codes.stride - cols8));
  }
  return codes;
}

/// Rows of row block tm that lie inside an m-row matrix (0 for padding
/// blocks).
i64 block_rows(i64 tm, i64 m) {
  return std::clamp<i64>(m - tm * kTileM, 0, kTileM);
}

/// expand_neighbours over any A-side tile source (the same survivors() and
/// tile_ptr() the tile sweep reads, so the jump counts match it). Pass one
/// collects each row block's survivors and counts each row's set bits; a
/// prefix sum makes the counts offsets; pass two writes the ids through the
/// backend's expand_bits hook, in the order the tiles and bits come.
template <typename Src>
NeighbourList expand_neighbours(const Src& src, i64 m, const void* adj,
                                const BmmOptions& opt) {
  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  tcsim::Workspace& ws = ctx.workspace();
  const i64 blocks = src.tiles_m();
  i64* offsets = ws.neighbour_index(m + 1 + blocks);
  i64* jumped = offsets + m + 1;
  std::vector<std::vector<i64>>& k_lists = ws.k_lists(blocks);
  parallel_for_dynamic(0, blocks, /*chunk=*/1, [&](i64 tm) {
    auto& list = k_lists[static_cast<std::size_t>(tm)];
    list.reserve(static_cast<std::size_t>(src.survivor_bound(tm)));
    jumped[tm] = src.survivors(tm, opt, list);
    for (i64 i = 0; i < block_rows(tm, m); ++i) {
      i64 count = 0;
      for (const i64 h : list) {
        const u32* words = src.tile_ptr(0, tm, h) + i * src.tile_stride(0);
        for (i64 w = 0; w < kTileKWords; ++w) count += std::popcount(words[w]);
      }
      offsets[tm * kTileM + i + 1] = count;
    }
  });
  offsets[0] = 0;
  for (i64 r = 0; r < m; ++r) offsets[r + 1] += offsets[r];
  i32* ids = ws.neighbour_ids(offsets[m]);
  parallel_for_dynamic(0, blocks, /*chunk=*/1, [&](i64 tm) {
    const auto& list = k_lists[static_cast<std::size_t>(tm)];
    for (i64 i = 0; i < block_rows(tm, m); ++i) {
      i32* out = ids + offsets[tm * kTileM + i];
      for (const i64 h : list) {
        const u32* words = src.tile_ptr(0, tm, h) + i * src.tile_stride(0);
        const i32 base = static_cast<i32>(src.tile_col(h) * kTileK);
        for (int half = 0; half < 2; ++half) {
          u64 bits;
          std::memcpy(&bits, words + 2 * half, sizeof(bits));
          out += be.expand_bits(bits, base + 64 * half, out);
        }
      }
    }
  });
  return {offsets, ids, jumped, m, blocks, adj};
}

/// Row-gather aggregation: the integer identity behind Algorithm 1,
/// sum_b 2^b * popcount(A_row & X_b) = sum over set bits v of A_row of
/// code(X[v]), executed literally over the adjacency's neighbour list `nl`.
/// X comes as codes (read in place) or as planes, unpacked once to codes on
/// the calling thread (codes_of). One parallel region over row blocks adds
/// each row's neighbours' code rows into an int32 row of the block through
/// the backend's add_code_rows hook; `drain(tm, rows, acc, stride)` receives
/// each finished block of `rows` rows (row i at acc + i * stride, of which
/// the first n = x.cols lanes are meaningful) and may overwrite it. Every
/// call counts the list's jumped tiles and edges. No tile MMAs execute.
template <typename Drain>
void row_gather(const NeighbourList& nl, StageInput x, const BmmOptions& opt,
                Drain&& drain) {
  QGTC_CHECK(row_gather_applies(x.bits(), opt),
             "row gather needs zero-tile jumping, the AND combine, codes of "
             "at most 8 bits and the int32 bound (no allow_overflow)");
  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const CodeMatrix codes = codes_of(x, ctx);
  const i64 width = round_up(codes.cols, tcsim::kCodeRowAlign);
  parallel_for_dynamic(0, nl.blocks, /*chunk=*/1, [&](i64 tm) {
    const i64 r0 = tm * kTileM;
    const i64 rows = block_rows(tm, nl.rows);
    tcsim::Counters delta;
    delta.tiles_jumped = static_cast<u64>(nl.jumped[tm]);
    if (rows > 0) {
      i32* acc = ctx.workspace().gather_lanes(kTileM * width);
      std::memset(acc, 0, static_cast<std::size_t>(rows * width) * sizeof(i32));
      for (i64 i = 0; i < rows; ++i) {
        const i64 begin = nl.offsets[r0 + i];
        be.add_code_rows(acc + i * width, codes.data, codes.stride, width,
                         nl.ids + begin, nl.offsets[r0 + i + 1] - begin);
      }
      drain(tm, rows, acc, width);
      delta.gather_edges =
          static_cast<u64>(nl.offsets[r0 + rows] - nl.offsets[r0]);
    }
    ctx.note(delta);
  });
}

/// Packs one requantized row of `n` values (each below 2^out_bits <= 256)
/// into kRowMajorK plane rows: bit b of value j goes to bit j % 8 of
/// planes[b][j / 8]. Assigns whole bytes; each plane row must hold
/// round_up(n, 8) bits.
void pack_row_planes(const i32* vals, i64 n, u8* const* planes, int out_bits) {
  // 64 columns at a time: narrow the values to bytes (zero past n), then
  // per 8 columns an 8x8 bit transpose (three delta swaps) of the u64 whose
  // byte i is column i leaves plane b's bits in byte b. Byte order is
  // little-endian, as everywhere in the row gather.
  for (i64 c0 = 0; c0 < n; c0 += 64) {
    const i64 cn = std::min<i64>(n - c0, 64);
    u8 bytes[64] = {};
    for (i64 j = 0; j < cn; ++j) bytes[j] = static_cast<u8>(vals[c0 + j]);
    for (i64 j0 = 0; j0 < cn; j0 += 8) {
      u64 x;
      std::memcpy(&x, bytes + j0, sizeof(x));
      x = transpose8x8_bits(x);
      for (int b = 0; b < out_bits; ++b) {
        planes[b][(c0 + j0) / 8] = static_cast<u8>(x >> (8 * b));
      }
    }
  }
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
    for (int b = 0; b < bits; ++b) v |= tcsim::kByteSpread[planes[b][at]] << b;
    std::memcpy(codes + 8 * at, &v, sizeof(v));
  }
}

/// The code dot's A operand as kRowMajorK bit planes: survivors from the
/// planes' §4.3 flag test, and each work item's lines unpacked into the
/// worker's row-code slot.
class PlaneLinesA {
 public:
  explicit PlaneLinesA(const StackedBitTensor& a)
      : a_(&a), src_(plane_ptrs(a)) {}

  [[nodiscard]] i64 rows() const { return a_->rows(); }
  [[nodiscard]] i64 tiles_m() const { return src_.tiles_m(); }
  [[nodiscard]] i64 stride() const { return src_.padded_k(); }
  i64 survivors(i64 tm, const BmmOptions& opt, std::vector<i64>& list) const {
    return src_.survivors(tm, opt, list);
  }
  /// Codes of row blocks [tm0, tm1), stride() bytes per row.
  [[nodiscard]] const u8* lines(const tcsim::ExecutionContext& ctx, i64 tm0,
                                i64 tm1) const {
    u8* codes = ctx.workspace().row_codes((tm1 - tm0) * kTileM * stride());
    unpack_line_codes(*a_, tm0 * kTileM, (tm1 - tm0) * kTileM, codes);
    return codes;
  }

 private:
  const StackedBitTensor* a_;
  DensePlanesSource src_;
};

/// The code dot's A operand as a code matrix, read in place. An 8x128 block
/// of all-zero codes is exactly a tile that is zero in every plane of the
/// same operand, so survivors() keeps and jumps what the plane form's flag
/// test does (row blocks as for kTile8 planes).
class CodeRowsA {
 public:
  explicit CodeRowsA(const CodeMatrix& a) : a_(&a) {}

  [[nodiscard]] i64 rows() const { return a_->rows; }
  [[nodiscard]] i64 tiles_m() const { return ceil_div(a_->rows, kTileM); }
  [[nodiscard]] i64 stride() const { return a_->stride; }
  i64 survivors(i64 tm, const BmmOptions& opt, std::vector<i64>& list) const {
    const i64 tiles_k = ceil_div(a_->cols, kTileK);
    i64 jumped = 0;
    for (i64 tk = 0; tk < tiles_k; ++tk) {
      if (opt.zero_tile_jump && block_zero(tm, tk)) {
        ++jumped;
        continue;
      }
      list.push_back(tk);
    }
    return jumped;
  }
  [[nodiscard]] const u8* lines(const tcsim::ExecutionContext&, i64 tm0,
                                i64) const {
    return a_->row(tm0 * kTileM);
  }

 private:
  const CodeMatrix* a_;

  /// True when rows [8 tm, 8 tm + 8) hold no non-zero code in columns
  /// [128 tk, 128 tk + 128) (the stride's zero padding included).
  [[nodiscard]] bool block_zero(i64 tm, i64 tk) const {
    const i64 k0 = tk * kTileK;
    const i64 len = std::min<i64>(kTileK, a_->stride - k0);
    u64 any = 0;
    for (i64 i = 0; i < kTileM; ++i) {
      const u8* p = a_->row(tm * kTileM + i) + k0;
      for (i64 k = 0; k < len; k += 8) {
        u64 v;
        std::memcpy(&v, p + k, sizeof(v));
        any |= v;
      }
    }
    return any == 0;
  }
};

/// Packs kColMajorK weight planes (<= 8 bits) as CodePanels into `dst`
/// (code_panel_elems(w) i16) and returns the view: each plane byte of a
/// column line spreads into eight codes (as in unpack_line_codes), which
/// land at their K pair's slot in the column's panel.
tcsim::CodePanels pack_code_panels(const StackedBitTensor& w, i16* dst) {
  QGTC_CHECK(w.layout() == BitLayout::kColMajorK && w.bits() <= 8,
             "code panels pack kColMajorK planes of at most 8 bits");
  constexpr i64 kCols = tcsim::kCodePanelCols;
  const i64 kp = w.plane(0).padded_rows();
  const tcsim::CodePanels view{dst, kp / 2, ceil_div(w.cols(), kCols)};
  const i64 line_bytes = kp / 8;
  std::fill(dst, dst + view.panels * kp * kCols, i16{0});
  const u8* planes[8];
  for (int b = 0; b < w.bits(); ++b) {
    planes[b] = reinterpret_cast<const u8*>(w.plane(b).data());
  }
  for (i64 j = 0; j < w.cols(); ++j) {
    i16* col = dst + (j / kCols) * kp * kCols + (j % kCols) * 2;
    for (i64 at = 0; at < line_bytes; ++at) {
      u64 v = 0;
      for (int b = 0; b < w.bits(); ++b) {
        v |= tcsim::kByteSpread[planes[b][j * line_bytes + at]] << b;
      }
      for (i64 k = 8 * at; k < 8 * at + 8; ++k, v >>= 8) {
        col[(k / 2) * 2 * kCols + k % 2] = static_cast<i16>(v & 0xff);
      }
    }
  }
  return view;
}

/// i16 elements the CodePanels of kColMajorK planes `w` take.
i64 code_panel_elems(const StackedBitTensor& w) {
  return round_up(w.cols(), tcsim::kCodePanelCols) * w.plane(0).padded_rows();
}

/// Code-dot update: the integer identity behind Algorithm 1 for two
/// multi-bit operands, sum_{a,b} 2^(a+b) * popcount(A_a & W_b) = sum_k
/// code_A[k] * code_W[k], executed as a register-blocked GEMM over W's
/// CodePanels `w`. One parallel region over groups of kRowBlocksPerWord row
/// blocks takes the group's A code rows from the A source `a` (PlaneLinesA
/// or CodeRowsA). Per row block, its survivors (the same tiles
/// fused_tile_sweep keeps) make runs of consecutive K tiles, clipped to the
/// logical K `a_cols` (codes past it are zero padding); the block's codes
/// in those runs widen to i16 A pairs, and the backend's code_gemm_rows
/// reduces them against every panel. `drain(tm, rows, acc, stride)`
/// receives each finished row block: `rows` raw int32 output rows, row i at
/// acc + i * stride, each holding the panels' columns (only the output's
/// columns are meaningful), which it may overwrite. Code MACs count the
/// logical rows x the `n` logical output columns x the surviving logical K
/// codes. No tile MMAs execute.
template <typename ASrc, typename Drain>
void code_dot_loop(const ASrc& a, i64 a_cols, const tcsim::CodePanels& w,
                   i64 n, const BmmOptions& opt, Drain&& drain) {
  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  const tcsim::SubstrateBackend& be = ctx.backend();
  const i64 tiles_m = a.tiles_m();
  const i64 k_end = round_up(a_cols, tcsim::kCodeDotAlign);
  const i64 width = w.panels * tcsim::kCodePanelCols;

  std::vector<std::vector<i64>>& k_lists = ctx.workspace().k_lists(tiles_m);
  parallel_for_dynamic(0, ceil_div(tiles_m, kRowBlocksPerWord), /*chunk=*/1,
                       [&](i64 g) {
    const i64 tm0 = g * kRowBlocksPerWord;
    const i64 tm1 = std::min(tiles_m, tm0 + kRowBlocksPerWord);
    const u8* a_codes = a.lines(ctx, tm0, tm1);
    const i64 a_stride = a.stride();
    tcsim::Workspace& ws = ctx.workspace();
    i16* pairs = ws.code_pairs(kTileM * k_end);
    i32* block = ws.code_block(kTileM * width);
    std::vector<tcsim::KRun>& runs = ws.k_runs();
    tcsim::Counters delta;
    for (i64 tm = tm0; tm < tm1; ++tm) {
      auto& list = k_lists[static_cast<std::size_t>(tm)];
      delta.tiles_jumped += static_cast<u64>(a.survivors(tm, opt, list));
      const i64 rows = block_rows(tm, a.rows());
      const u8* a_blk = a_codes + (tm - tm0) * kTileM * a_stride;
      runs.clear();
      i64 codes = 0;
      for (std::size_t r = 0; r < list.size();) {
        // One run of consecutive surviving K tiles is one code range.
        std::size_t e = r + 1;
        while (e < list.size() && list[e] == list[e - 1] + 1) ++e;
        const i64 k0 = list[r] * kTileK;
        const i64 k1 = std::min(list[e - 1] * kTileK + kTileK, k_end);
        for (i64 i = 0; i < rows; ++i) {
          const u8* src = a_blk + i * a_stride;
          i16* dst = pairs + i * k_end;
          for (i64 k = k0; k < k1; ++k) dst[k] = src[k];
        }
        runs.push_back({k0 / 2, k1 / 2});
        codes += std::min(k1, a_cols) - k0;
        r = e;
      }
      be.code_gemm_rows(block, width, pairs, k_end, rows, w, runs.data(),
                        static_cast<i64>(runs.size()));
      drain(tm, rows, block, width);
      delta.code_macs += static_cast<u64>(rows * n * codes);
    }
    ctx.note(delta);
  });
}

/// The code dot over either form of A: code rows read in place, or plane
/// lines unpacked per work item. W's packed codes come with `w`, or are
/// packed here into the calling thread's code_panels slot.
template <typename Drain>
void code_dot(StageInput a, StageWeight w, const BmmOptions& opt,
              Drain&& drain) {
  QGTC_CHECK(code_dot_applies(a.bits(), w.bits(), opt),
             "the code dot needs zero-tile jumping, the AND combine, operands "
             "of at most 8 bits and the int32 bound (no allow_overflow)");
  const StackedBitTensor& wp = w.planes();
  QGTC_CHECK(wp.layout() == BitLayout::kColMajorK, "B planes must be kColMajorK");
  QGTC_CHECK(pad128(a.cols()) == wp.plane(0).padded_rows(),
             "padded K extents of A and B differ");
  const tcsim::CodePanels panels =
      w.codes() != nullptr
          ? w.codes()->view()
          : pack_code_panels(wp, resolve_ctx(opt).workspace().code_panels(
                                     code_panel_elems(wp)));
  QGTC_CHECK(panels.k_pairs * 2 == wp.plane(0).padded_rows() &&
                 panels.panels == ceil_div(wp.cols(), tcsim::kCodePanelCols),
             "packed weight codes do not match the weight planes");
  if (a.codes() != nullptr) {
    code_dot_loop(CodeRowsA(*a.codes()), a.cols(), panels, wp.cols(), opt,
                  drain);
  } else {
    code_dot_loop(PlaneLinesA(*a.planes()), a.cols(), panels, wp.cols(), opt,
                  drain);
  }
}

/// The fused to-bit epilogue's writer, shared by every kernel's drain (tile
/// sweep lanes, exact raw tiles, gathered and code-dot row blocks): the BN
/// fold, then the shared tcsim::apply_epilogue, then the requantized values
/// go into the output bit planes or narrow into the output code matrix.
/// Plane tiles cost one word RMW per (line, plane); an 8-bit lane always
/// sits inside one u32 word because tile extents divide the 32-bit packing.
/// Drains write only logical cells, so concurrent drains of different tiles
/// or rows never share a code byte.
class RequantWriter {
 public:
  RequantWriter(StackedBitTensor& out, const FusedEpilogue& epi)
      : planes_(&out),
        epi_(&epi),
        rows_(out.rows()),
        cols_(out.cols()),
        spec_{epi.act, epi.rshift, qmax_of(out.bits())} {}

  /// Code output: zeroes the padding here, on the calling thread.
  RequantWriter(const CodeMatrix& out, const FusedEpilogue& epi)
      : codes_(out),
        epi_(&epi),
        rows_(out.rows),
        cols_(out.cols),
        spec_{epi.act, epi.rshift, qmax_of(out.bits)} {
    QGTC_CHECK(out.bits >= 1 && out.bits <= 8,
               "a code matrix holds codes of 1 to 8 bits");
    QGTC_CHECK(out.stride % kCodeAlign == 0 && out.stride >= out.cols,
               "a code matrix's stride is a multiple of kCodeAlign");
    for (i64 r = 0; r < out.rows; ++r) {
      std::memset(out.row(r) + out.cols, 0,
                  static_cast<std::size_t>(out.stride - out.cols));
    }
    std::memset(out.row(out.rows), 0,
                static_cast<std::size_t>((out.padded_rows() - out.rows) *
                                         out.stride));
  }

  [[nodiscard]] int bits() const {
    return planes_ != nullptr ? planes_->bits() : codes_.bits;
  }

  /// Drains a tile sweep's accumulator lanes: plane outputs without BN
  /// through the backend's plane flush, the others staged through one raw
  /// i32 tile.
  void operator()(const tcsim::SubstrateBackend& be, i64 tm, i64 tn,
                  const u64* acc) const {
    if (planes_ != nullptr && !epi_->use_bn) {
      u32* planes[32];
      be.flush_planes(plane_sink(tm, tn, planes), acc, spec_);
      return;
    }
    alignas(64) i32 q[kTileM * kTileN];
    be.flush_epilogue(q, kTileN, acc, tcsim::EpilogueSpec{});
    (*this)(tm, tn, q);
  }

  /// Drains an exact raw int32 tile (row-major; overwritten).
  void operator()(i64 tm, i64 tn, i32* q) const {
    const i64 rh = rows_here(tm), ch = cols_here(tn);
    for (i64 i = 0; i < rh; ++i) {
      for (i64 j = 0; j < ch; ++j) {
        const i32 v = apply_bn(q[i * kTileN + j], tn * kTileN + j, *epi_);
        q[i * kTileN + j] = tcsim::apply_epilogue(v, spec_);
      }
    }
    if (planes_ != nullptr) {
      u32* planes[32];
      tcsim::scatter_planes(plane_sink(tm, tn, planes), q);
      return;
    }
    for (i64 i = 0; i < rh; ++i) {
      u8* dst = codes_.row(tm * kTileM + i) + tn * kTileN;
      for (i64 j = 0; j < ch; ++j) dst[j] = static_cast<u8>(q[i * kTileN + j]);
    }
  }

  /// Drains the finished rows of row block tm (row i at acc + i * stride;
  /// overwritten), for any output form. The rows requantize in one
  /// requantize_row call over the block's span (lanes between rows are
  /// requantized too and never stored). kColMajorK planes take the block in
  /// 8x8 slices through the tile scatter.
  void block(i64 tm, i32* acc, i64 stride) const {
    const i64 rh = rows_here(tm);
    for (i64 i = 0; i < rh; ++i) apply_bn_row(acc + i * stride, cols_, *epi_);
    requantize_row(acc, (rh - 1) * stride + cols_, spec_);
    if (planes_ == nullptr || planes_->layout() == BitLayout::kRowMajorK) {
      for (i64 i = 0; i < rh; ++i) store_row(tm * kTileM + i, acc + i * stride);
      return;
    }
    for (i64 tn = 0; tn < ceil_div(cols_, kTileN); ++tn) {
      alignas(64) i32 q[kTileM * kTileN] = {};
      for (i64 i = 0; i < rh; ++i) {
        std::memcpy(q + i * kTileN, acc + i * stride + tn * kTileN,
                    static_cast<std::size_t>(cols_here(tn)) * sizeof(i32));
      }
      u32* planes[32];
      tcsim::scatter_planes(plane_sink(tm, tn, planes), q);
    }
  }

 private:
  StackedBitTensor* planes_ = nullptr;
  CodeMatrix codes_;
  const FusedEpilogue* epi_;
  i64 rows_, cols_;
  tcsim::EpilogueSpec spec_;

  static i32 qmax_of(int bits) { return static_cast<i32>((u32{1} << bits) - 1); }

  /// Stores one requantized row `r` as codes or kRowMajorK plane bits.
  void store_row(i64 r, const i32* acc) const {
    if (planes_ == nullptr) {
      u8* dst = codes_.row(r);
      const i64 n = cols_;  // a u8 store may alias the members: read once
      for (i64 j = 0; j < n; ++j) dst[j] = static_cast<u8>(acc[j]);
      return;
    }
    u8* rows[8];
    for (int b = 0; b < planes_->bits(); ++b) {
      rows[b] = reinterpret_cast<u8*>(planes_->plane(b).row_words(r));
    }
    pack_row_planes(acc, cols_, rows, planes_->bits());
  }

  [[nodiscard]] i64 rows_here(i64 tm) const {
    return std::min<i64>(kTileM, rows_ - tm * kTileM);
  }
  [[nodiscard]] i64 cols_here(i64 tn) const {
    return std::min<i64>(kTileN, cols_ - tn * kTileN);
  }

  tcsim::PlaneSink plane_sink(i64 tm, i64 tn, u32** planes) const {
    const int out_bits = planes_->bits();
    const i64 line_stride = planes_->plane(0).k_words();
    if (planes_->layout() == BitLayout::kRowMajorK) {
      // Line = output row; 8 column bits land in word (tn*8)/32 at offset
      // (tn%4)*8.
      const i64 word = (tn * kTileN) / kWordBits;
      for (int b = 0; b < out_bits; ++b) {
        planes[b] = planes_->plane(b).row_words(tm * kTileM) + word;
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
      planes[b] = planes_->plane(b).col_words(tn * kTileN) + word;
    }
    return {planes,        line_stride,
            static_cast<int>((tm * kTileM) % kWordBits),
            out_bits,      cols_here(tn),
            rows_here(tm), /*transpose=*/true};
  }
};

/// Checks shared by the update entry points.
void check_update(StageInput a, StageWeight b, ReuseMode kernel,
                  const BmmOptions& opt) {
  QGTC_CHECK(a.cols() == b.rows(), "update: inner dimensions differ");
  QGTC_CHECK(kernel == ReuseMode::kCrossTile || kernel == ReuseMode::kCodeDot,
             "update stages run the tile sweep (kCrossTile) or the code dot");
  if (!opt.allow_overflow) check_accumulator_bounds(a.cols(), a.bits(), b.bits());
}

/// Fused to-bit update body: runs `kernel` and drains every output tile
/// through `write`. `col_major_out` when `write` fills kColMajorK planes.
void update_requant(StageInput a, StageWeight b, const RequantWriter& write,
                    bool col_major_out, const BmmOptions& opt,
                    ReuseMode kernel) {
  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  if (kernel == ReuseMode::kCodeDot) {
    code_dot(a, b, opt, [&](i64 tm, i64, i32* acc, i64 stride) {
      write.block(tm, acc, stride);
    });
  } else {
    const tcsim::SubstrateBackend& be = ctx.backend();
    fused_tile_sweep(DensePlanesSource(plane_ptrs(a.need_planes("the tile sweep"))),
                     plane_ptrs(b.planes()), opt, col_major_out,
                     [&](i64 tm, i64 tn, const u64* acc) {
                       write(be, tm, tn, acc);
                     });
  }
  // Bit-decomposition never materialises an int32 matrix in "global
  // memory" (§4.5).
  note_int32_avoided(ctx, a.rows(), b.cols());
}

}  // namespace

PackedCodes PackedCodes::pack(const StackedBitTensor& w) {
  PackedCodes p;
  p.data.resize(static_cast<std::size_t>(code_panel_elems(w)));
  const tcsim::CodePanels view = pack_code_panels(w, p.data.data());
  p.k_pairs = view.k_pairs;
  p.panels = view.panels;
  return p;
}

const StackedBitTensor& StageInput::need_planes(const char* who) const {
  QGTC_CHECK(planes_ != nullptr,
             std::string(who) + " reads bit planes, not a code matrix");
  return *planes_;
}

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

MatrixI32 bitmm_fused_int(StageInput a, StageWeight b,
                          const FusedEpilogue& epi, const BmmOptions& opt,
                          ReuseMode kernel) {
  MatrixI32 out(a.rows(), b.cols());
  bitmm_fused_int_into(a, b, out, epi, opt, kernel);
  return out;
}

void bitmm_fused_int_into(StageInput a, StageWeight b,
                          MatrixI32& out, const FusedEpilogue& epi,
                          const BmmOptions& opt, ReuseMode kernel) {
  check_update(a, b, kernel, opt);
  QGTC_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
             "bitmm_fused_int_into: output shape mismatch");
  const i64 m = a.rows(), n = b.cols();
  if (kernel == ReuseMode::kCodeDot) {
    code_dot(a, b, opt, [&](i64 tm, i64 rows, i32* acc, i64 stride) {
      for (i64 i = 0; i < rows; ++i) {
        store_int_row(out.data() + (tm * kTileM + i) * n, acc + i * stride, n,
                      epi);
      }
    });
    return;
  }
  const tcsim::SubstrateBackend& be = resolve_ctx(opt).backend();
  fused_tile_sweep(DensePlanesSource(plane_ptrs(a.need_planes("the tile sweep"))),
                   plane_ptrs(b.planes()), opt, /*col_major_out=*/false,
                   [&](i64 tm, i64 tn, const u64* acc) {
                     drain_int_tile(be, out.data(), m, n, tm, tn, acc, epi);
                   });
}

StackedBitTensor bitmm_fused_bit(StageInput a, StageWeight b,
                                 int out_bits, const FusedEpilogue& epi,
                                 const BmmOptions& opt, PadPolicy out_pad,
                                 BitLayout out_layout, ReuseMode kernel) {
  check_update(a, b, kernel, opt);
  QGTC_CHECK(out_bits >= 1 && out_bits <= 31, "out_bits must be in [1,31]");
  StackedBitTensor out =
      StackedBitTensor::zeros(a.rows(), b.cols(), out_bits, out_layout, out_pad);
  update_requant(a, b, RequantWriter(out, epi),
                 out_layout == BitLayout::kColMajorK, opt, kernel);
  return out;
}

void bitmm_fused_codes(StageInput a, StageWeight b,
                       const CodeMatrix& out, const FusedEpilogue& epi,
                       const BmmOptions& opt, ReuseMode kernel) {
  check_update(a, b, kernel, opt);
  QGTC_CHECK(out.rows == a.rows() && out.cols == b.cols(),
             "bitmm_fused_codes: output shape mismatch");
  update_requant(a, b, RequantWriter(out, epi), /*col_major_out=*/false, opt,
                 kernel);
}

namespace {

/// Checks shared by the aggregation entry points.
void check_aggregate(i64 a_cols, StageInput x, ReuseMode mode,
                     const BmmOptions& opt) {
  QGTC_CHECK(a_cols == x.rows(), "aggregate: dimension mismatch");
  QGTC_CHECK(mode != ReuseMode::kCodeDot, "the code dot is an update kernel");
  if (!opt.allow_overflow) check_accumulator_bounds(a_cols, 1, x.bits());
}

/// The neighbour list a row gather over `a_bin` reads: opt.neighbours,
/// which must have been expanded from `a_bin`, or else `a_bin` expanded
/// here, per call, from its tile source.
template <typename AdjT, typename Src>
NeighbourList neighbours_of(const AdjT& a_bin, const Src& src,
                            const BmmOptions& opt) {
  if (opt.neighbours == nullptr) {
    return expand_neighbours(src, a_bin.rows(), &a_bin, opt);
  }
  QGTC_CHECK(opt.neighbours->source == &a_bin &&
                 opt.neighbours->rows == a_bin.rows(),
             "the neighbour list was expanded from another adjacency");
  return *opt.neighbours;
}

/// Shared aggregate_1bit body, generic over the adjacency representation
/// (bmm_accumulate overloads on it) and its tile source. `padded_m` is the
/// representation's padded row extent for the cross-bit accumulator.
/// Assigns every element of `out` (a_bin.rows x x.cols).
template <typename AdjT, typename Src>
void aggregate_1bit_into_impl(const AdjT& a_bin, i64 padded_m, const Src& src,
                              StageInput x, ReuseMode mode, MatrixI32& out,
                              const BmmOptions& opt) {
  check_aggregate(a_bin.cols(), x, mode, opt);
  QGTC_CHECK(out.rows() == a_bin.rows() && out.cols() == x.cols(),
             "aggregate_1bit_into: output shape mismatch");
  const i64 m = a_bin.rows(), n = x.cols();
  if (mode == ReuseMode::kRowGather) {
    row_gather(neighbours_of(a_bin, src, opt), x, opt,
               [&](i64 tm, i64 rows, const i32* acc, i64 stride) {
                 for (i64 i = 0; i < rows; ++i) {
                   std::memcpy(out.data() + (tm * kTileM + i) * n,
                               acc + i * stride,
                               static_cast<std::size_t>(n) * sizeof(i32));
                 }
               });
    return;
  }
  const StackedBitTensor& xp = x.need_planes("the tile sweeps");
  if (mode == ReuseMode::kCrossBit) {
    // Figure 6(a): one complete BMM pass per bit-plane; every surviving A
    // tile is re-loaded for each plane.
    MatrixI32& padded = resolve_ctx(opt).workspace().padded_acc(
        padded_m, xp.plane(0).padded_cols());
    for (int b = 0; b < xp.bits(); ++b) {
      bmm_accumulate(a_bin, xp.plane(b), padded, b, opt);
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
  fused_tile_sweep(src, plane_ptrs(xp), opt, /*col_major_out=*/false,
                   [&](i64 tm, i64 tn, const u64* acc) {
                     drain_int_tile(be, out.data(), m, n, tm, tn, acc,
                                    FusedEpilogue{});
                   });
}

/// Fused to-bit aggregation body, generic over the adjacency and its tile
/// source: the row gather drains each row block through `write`, the tile
/// schedules run the cross-tile sweep (cross-bit has no fused form).
/// Outputs are kRowMajorK planes or codes.
template <typename AdjT, typename Src>
void aggregate_requant(const AdjT& a_bin, const Src& src, StageInput x,
                       const RequantWriter& write, const BmmOptions& opt,
                       ReuseMode mode) {
  const tcsim::ExecutionContext& ctx = resolve_ctx(opt);
  if (mode == ReuseMode::kRowGather) {
    QGTC_CHECK(write.bits() <= 8,
               "the row gather's fused output packs at most 8 bits");
    row_gather(neighbours_of(a_bin, src, opt), x, opt,
               [&](i64 tm, i64, i32* acc, i64 stride) {
                 write.block(tm, acc, stride);
               });
  } else {
    const tcsim::SubstrateBackend& be = ctx.backend();
    fused_tile_sweep(src, plane_ptrs(x.need_planes("the tile sweeps")), opt,
                     /*col_major_out=*/false,
                     [&](i64 tm, i64 tn, const u64* acc) {
                       write(be, tm, tn, acc);
                     });
  }
  note_int32_avoided(ctx, a_bin.rows(), x.cols());
}

template <typename AdjT, typename Src>
StackedBitTensor aggregate_fused_bit_impl(const AdjT& a_bin, const Src& src,
                                          StageInput x, int out_bits,
                                          const FusedEpilogue& epi,
                                          const BmmOptions& opt,
                                          PadPolicy out_pad, ReuseMode mode) {
  check_aggregate(a_bin.cols(), x, mode, opt);
  QGTC_CHECK(out_bits >= 1 && out_bits <= 31, "out_bits must be in [1,31]");
  StackedBitTensor out = StackedBitTensor::zeros(
      a_bin.rows(), x.cols(), out_bits, BitLayout::kRowMajorK, out_pad);
  aggregate_requant(a_bin, src, x, RequantWriter(out, epi), opt, mode);
  return out;
}

template <typename AdjT, typename Src>
void aggregate_fused_codes_impl(const AdjT& a_bin, const Src& src,
                                StageInput x, const CodeMatrix& out,
                                const FusedEpilogue& epi, const BmmOptions& opt,
                                ReuseMode mode) {
  check_aggregate(a_bin.cols(), x, mode, opt);
  QGTC_CHECK(out.rows == a_bin.rows() && out.cols == x.cols(),
             "aggregate_fused_codes: output shape mismatch");
  aggregate_requant(a_bin, src, x, RequantWriter(out, epi), opt, mode);
}

}  // namespace

NeighbourList expand_neighbours(const BitMatrix& a, const BmmOptions& opt) {
  return expand_neighbours(DensePlanesSource({&a}), a.rows(), &a, opt);
}

NeighbourList expand_neighbours(const TileSparseBitMatrix& a,
                                const BmmOptions& opt) {
  return expand_neighbours(SparseAdjSource(a), a.rows(), &a, opt);
}

MatrixI32 aggregate_1bit(const BitMatrix& a_bin, StageInput x, ReuseMode mode,
                         const BmmOptions& opt) {
  MatrixI32 out(a_bin.rows(), x.cols());
  aggregate_1bit_into(a_bin, x, mode, out, opt);
  return out;
}

MatrixI32 aggregate_1bit(const TileSparseBitMatrix& a_bin, StageInput x,
                         ReuseMode mode, const BmmOptions& opt) {
  MatrixI32 out(a_bin.rows(), x.cols());
  aggregate_1bit_into(a_bin, x, mode, out, opt);
  return out;
}

void aggregate_1bit_into(const BitMatrix& a_bin, StageInput x, ReuseMode mode,
                         MatrixI32& out, const BmmOptions& opt) {
  aggregate_1bit_into_impl(a_bin, pad8(a_bin.rows()),
                           DensePlanesSource({&a_bin}), x, mode, out, opt);
}

void aggregate_1bit_into(const TileSparseBitMatrix& a_bin, StageInput x,
                         ReuseMode mode, MatrixI32& out,
                         const BmmOptions& opt) {
  aggregate_1bit_into_impl(a_bin, a_bin.padded_rows(), SparseAdjSource(a_bin),
                           x, mode, out, opt);
}

StackedBitTensor aggregate_fused_bit(const BitMatrix& a_bin, StageInput x,
                                     int out_bits, const FusedEpilogue& epi,
                                     const BmmOptions& opt, PadPolicy out_pad,
                                     ReuseMode mode) {
  return aggregate_fused_bit_impl(a_bin, DensePlanesSource({&a_bin}), x,
                                  out_bits, epi, opt, out_pad, mode);
}

StackedBitTensor aggregate_fused_bit(const TileSparseBitMatrix& a_bin,
                                     StageInput x, int out_bits,
                                     const FusedEpilogue& epi,
                                     const BmmOptions& opt, PadPolicy out_pad,
                                     ReuseMode mode) {
  return aggregate_fused_bit_impl(a_bin, SparseAdjSource(a_bin), x, out_bits,
                                  epi, opt, out_pad, mode);
}

void aggregate_fused_codes(const BitMatrix& a_bin, StageInput x,
                           const CodeMatrix& out, const FusedEpilogue& epi,
                           const BmmOptions& opt, ReuseMode mode) {
  aggregate_fused_codes_impl(a_bin, DensePlanesSource({&a_bin}), x, out, epi,
                             opt, mode);
}

void aggregate_fused_codes(const TileSparseBitMatrix& a_bin, StageInput x,
                           const CodeMatrix& out, const FusedEpilogue& epi,
                           const BmmOptions& opt, ReuseMode mode) {
  aggregate_fused_codes_impl(a_bin, SparseAdjSource(a_bin), x, out, epi, opt,
                             mode);
}

}  // namespace qgtc

// Randomized end-to-end cross-checks ("fuzz"): for random shapes, bit
// widths, densities, layouts and kernel options, the entire packed pipeline
// must agree exactly with naive integer references. These are the
// highest-leverage tests in the repo — any packing/padding/tiling/epilogue
// bug anywhere in the stack surfaces here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gnn/binary_gnn.hpp"
#include "kernels/anybit_mm.hpp"

namespace qgtc {
namespace {

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits, float zero_frac) {
  MatrixI32 m(rows, cols);
  const u64 range = u64{1} << bits;
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.next_bool(zero_frac)
                      ? 0
                      : static_cast<i32>(rng.next_below(range));
  }
  return m;
}

/// Every plane word of a packed tensor, padding included.
std::vector<u32> plane_words(const StackedBitTensor& t) {
  std::vector<u32> w;
  for (int b = 0; b < t.bits(); ++b) {
    const BitMatrix& p = t.plane(b);
    w.insert(w.end(), p.data(), p.data() + p.bytes() / 4);
  }
  return w;
}

/// The logical codes of a code matrix.
MatrixI32 code_values(const CodeMatrix& c) {
  MatrixI32 m(c.rows, c.cols);
  for (i64 r = 0; r < c.rows; ++r) {
    for (i64 j = 0; j < c.cols; ++j) m(r, j) = c.row(r)[j];
  }
  return m;
}

/// One fuzz round: random (m, k, n, s, t, densities, jump) — full pipeline
/// vs integer reference.
class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, AnyBitPipelineMatchesReference) {
  Rng rng(static_cast<u64>(GetParam()) * 7919 + 13);
  const i64 m = rng.next_in(1, 70);
  const i64 k = rng.next_in(1, 300);
  const i64 n = rng.next_in(1, 50);
  const int s = static_cast<int>(rng.next_in(1, 8));
  const int t = static_cast<int>(rng.next_in(1, 8));
  const float za = rng.next_float(0.0f, 0.9f);
  const float zb = rng.next_float(0.0f, 0.9f);

  const MatrixI32 a = random_codes(rng, m, k, s, za);
  const MatrixI32 b = random_codes(rng, k, n, t, zb);
  const MatrixI32 expect = matmul_reference(a, b);

  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);

  BmmOptions opt;
  opt.zero_tile_jump = rng.next_bool(0.5f);
  EXPECT_EQ(bitmm_to_int(pa, pb, opt), expect);
  EXPECT_EQ(bitmm_fused_int(pa, pb, {}, opt), expect);

  // Fused to-bit output vs manual requantization of the reference.
  const int out_bits = static_cast<int>(rng.next_in(1, 8));
  i32 mx = 0;
  for (i64 i = 0; i < expect.size(); ++i) mx = std::max(mx, expect.data()[i]);
  FusedEpilogue epi;
  epi.rshift = calibrate_rshift(mx, out_bits);
  const auto packed = bitmm_fused_bit(pa, pb, out_bits, epi, opt);
  const MatrixI32 got = packed.compose();
  const i32 qmax = (1 << out_bits) - 1;
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      ASSERT_EQ(got(i, j), std::min(expect(i, j) >> epi.rshift, qmax))
          << "at (" << i << "," << j << ")";
    }
  }

  // The code dot against the tile sweep, bit for bit, on every backend: int,
  // unfused-into and fused to-bit outputs in both plane layouts, with and
  // without the BN fold. Code-dot calls execute no tile MMAs and jump
  // exactly the tiles the sweep jumps.
  FusedEpilogue bn = epi;
  bn.act = tcsim::Activation::kRelu;
  bn.use_bn = true;
  for (i64 j = 0; j < n; ++j) {
    bn.bn_scale.push_back(rng.next_float(0.5f, 1.5f));
    bn.bn_bias.push_back(rng.next_float(-20.0f, 20.0f));
  }
  for (const tcsim::BackendKind kind : tcsim::all_backends()) {
    const std::string be = tcsim::backend_name(kind);
    const auto parity = [&](const std::string& what, const auto& run) {
      const tcsim::ExecutionContext tile_ctx(kind), dot_ctx(kind);
      BmmOptions tile_opt;
      tile_opt.zero_tile_jump = true;
      tile_opt.ctx = &tile_ctx;
      BmmOptions dot_opt = tile_opt;
      dot_opt.ctx = &dot_ctx;
      EXPECT_TRUE(run(ReuseMode::kCodeDot, dot_opt) ==
                  run(ReuseMode::kCrossTile, tile_opt))
          << what << " on " << be;
      const tcsim::Counters tc = tile_ctx.counters();
      const tcsim::Counters dc = dot_ctx.counters();
      EXPECT_EQ(dc.bmma_ops, 0u) << what << " on " << be;
      EXPECT_EQ(dc.tiles_jumped, tc.tiles_jumped) << what << " on " << be;
      EXPECT_EQ(dc.int32_bytes_avoided, tc.int32_bytes_avoided) << what;
      EXPECT_EQ(dc.code_macs == 0, tc.bmma_ops == 0) << what << " on " << be;
      EXPECT_EQ(tc.code_macs, 0u) << what << " on " << be;
    };
    parity("int", [&](ReuseMode kernel, const BmmOptions& o) {
      const MatrixI32 got_int = bitmm_fused_int(pa, pb, {}, o, kernel);
      EXPECT_EQ(got_int, expect) << be;
      return got_int;
    });
    for (const FusedEpilogue* e : {&epi, &bn}) {
      const std::string tag = e->use_bn ? " bn" : "";
      parity("unfused" + tag, [&](ReuseMode kernel, const BmmOptions& o) {
        MatrixI32 into(m, n, -1);
        bitmm_fused_int_into(pa, pb, into, *e, o, kernel);
        return into;
      });
      for (const BitLayout layout :
           {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
        parity((layout == BitLayout::kRowMajorK ? "row-major" : "col-major") + tag,
               [&](ReuseMode kernel, const BmmOptions& o) {
                 return plane_words(bitmm_fused_bit(pa, pb, out_bits, *e, o,
                                                    PadPolicy::kOperand128,
                                                    layout, kernel));
               });
      }
    }
  }
}

// The 9-31-bit path: accumulators wrap (allow_overflow), so only the tile
// sweep may run it. Both sweeps must equal a uint32-wrapping reference.
TEST_P(PipelineFuzz, WrappingSweepMatchesUint32Reference) {
  Rng rng(static_cast<u64>(GetParam()) * 8191 + 5);
  const i64 m = rng.next_in(1, 40);
  const i64 k = rng.next_in(1, 300);
  const i64 n = rng.next_in(1, 30);
  const int s = static_cast<int>(rng.next_in(9, 31));
  const int t = static_cast<int>(rng.next_in(9, 31));
  const MatrixI32 a = random_codes(rng, m, k, s, 0.3f);
  const MatrixI32 b = random_codes(rng, k, n, t, 0.3f);
  MatrixI32 expect(m, n);
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      u32 acc = 0;
      for (i64 kk = 0; kk < k; ++kk) {
        acc += static_cast<u32>(a(i, kk)) * static_cast<u32>(b(kk, j));
      }
      expect(i, j) = static_cast<i32>(acc);
    }
  }
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);
  BmmOptions opt;
  opt.allow_overflow = true;
  opt.zero_tile_jump = rng.next_bool(0.5f);
  EXPECT_FALSE(code_dot_applies(s, t, opt));
  EXPECT_EQ(bitmm_to_int(pa, pb, opt), expect);
  EXPECT_EQ(bitmm_fused_int(pa, pb, {}, opt), expect);
  EXPECT_THROW((void)bitmm_fused_int(pa, pb, {}, opt, ReuseMode::kCodeDot),
               std::invalid_argument);
}

TEST_P(PipelineFuzz, AggregationModesAndJumpAgree) {
  Rng rng(static_cast<u64>(GetParam()) * 104729 + 7);
  const i64 nodes = rng.next_in(1, 200);
  const i64 d = rng.next_in(1, 40);
  const int s = static_cast<int>(rng.next_in(1, 8));

  // Block-sparse adjacency: some whole row-blocks zero.
  MatrixI32 adj(nodes, nodes, 0);
  for (i64 i = 0; i < nodes; ++i) {
    if ((i / 8) % 3 == 0) continue;  // zero row-block
    for (i64 j = 0; j < nodes; ++j) adj(i, j) = rng.next_bool(0.2f) ? 1 : 0;
  }
  const MatrixI32 x = random_codes(rng, nodes, d, s, 0.3f);
  const MatrixI32 expect = matmul_reference(adj, x);

  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, s, BitLayout::kColMajorK);
  const TileMap map = build_tile_map(pa);

  for (const bool jump : {false, true}) {
    for (const bool with_map : {false, true}) {
      BmmOptions opt;
      opt.zero_tile_jump = jump;
      opt.tile_map = with_map ? &map : nullptr;
      EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossBit, opt), expect);
      EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossTile, opt), expect);
    }
  }
}

/// Adjacency for the row-gather fuzz: each 8-row block is all zero, sparse
/// random, fully set (whole 8x128 tiles), or sparse with some rows empty.
MatrixI32 random_adjacency(Rng& rng, i64 m, i64 k) {
  MatrixI32 a(m, k, 0);
  for (i64 r0 = 0; r0 < m; r0 += 8) {
    const u64 shape = rng.next_below(4);
    const float p = rng.next_float(0.02f, 0.3f);
    for (i64 i = r0; i < std::min(m, r0 + 8); ++i) {
      if (shape == 0 || (shape == 3 && rng.next_bool(0.5f))) continue;
      for (i64 j = 0; j < k; ++j) {
        a(i, j) = (shape == 2 || rng.next_bool(p)) ? 1 : 0;
      }
    }
  }
  return a;
}

// The row gather against the cross-tile sweep, bit for bit, on every
// backend: both adjacency layouts (dense with and without a flag map, and
// tile-CSR), code widths 1-8 (two rounds each), ragged m/k/n, and the int,
// unfused-into and fused to-bit outputs under every activation and several
// right shifts. Gather calls execute no tile MMAs, jump exactly the tiles
// the sweep jumps, and add one code row per set adjacency bit.
TEST_P(PipelineFuzz, RowGatherMatchesCrossTileOnEveryBackend) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the row gather runs on little-endian hosts only";
  }
  Rng rng(static_cast<u64>(GetParam()) * 65537 + 29);
  const i64 m = rng.next_in(1, 150);
  const i64 k = rng.next_in(1, 300);
  const i64 n = rng.next_in(1, 70);
  const int s = 1 + GetParam() % 8;
  const MatrixI32 adj = random_adjacency(rng, m, k);
  const MatrixI32 x = random_codes(rng, k, n, s, 0.3f);
  const MatrixI32 expect = matmul_reference(adj, x);
  u64 edges = 0;
  for (i64 i = 0; i < adj.size(); ++i) edges += static_cast<u64>(adj.data()[i]);

  const BitMatrix dense = pack_nonzero(adj, BitLayout::kRowMajorK);
  const TileMap map = build_tile_map(dense);
  const TileSparseBitMatrix sparse = TileSparseBitMatrix::from_bit_matrix(dense);
  const auto px = StackedBitTensor::decompose(x, s, BitLayout::kColMajorK);
  i32 mx = 0;
  for (i64 i = 0; i < expect.size(); ++i) mx = std::max(mx, expect.data()[i]);
  const int out_bits = static_cast<int>(rng.next_in(1, 8));
  const int cal = calibrate_rshift(mx, out_bits);

  for (const tcsim::BackendKind kind : tcsim::all_backends()) {
    const std::string be = tcsim::backend_name(kind);
    const auto parity = [&](const std::string& what, const auto& a_bin,
                            const TileMap* tile_map, const auto& run) {
      const tcsim::ExecutionContext tile_ctx(kind), gather_ctx(kind);
      BmmOptions tile_opt;
      tile_opt.zero_tile_jump = true;
      tile_opt.tile_map = tile_map;
      tile_opt.ctx = &tile_ctx;
      BmmOptions gather_opt = tile_opt;
      gather_opt.ctx = &gather_ctx;
      EXPECT_TRUE(run(a_bin, ReuseMode::kRowGather, gather_opt) ==
                  run(a_bin, ReuseMode::kCrossTile, tile_opt))
          << what << " on " << be;
      const tcsim::Counters tc = tile_ctx.counters();
      const tcsim::Counters gc = gather_ctx.counters();
      EXPECT_EQ(gc.bmma_ops, 0u) << what << " on " << be;
      EXPECT_EQ(gc.tiles_jumped, tc.tiles_jumped) << what << " on " << be;
      EXPECT_EQ(gc.int32_bytes_avoided, tc.int32_bytes_avoided) << what;
      EXPECT_EQ(gc.gather_edges, edges) << what << " on " << be;
    };
    const auto all_outputs = [&](const std::string& layout, const auto& a_bin,
                                 const TileMap* tile_map) {
      parity(layout + " int", a_bin, tile_map,
             [&](const auto& a, ReuseMode mode, const BmmOptions& o) {
               const MatrixI32 got = aggregate_1bit(a, px, mode, o);
               EXPECT_EQ(got, expect) << layout << " on " << be;
               return got;
             });
      parity(layout + " unfused", a_bin, tile_map,
             [&](const auto& a, ReuseMode mode, const BmmOptions& o) {
               MatrixI32 out(m, n, -1);
               aggregate_1bit_into(a, px, mode, out, o);
               return out;
             });
      for (const tcsim::Activation act :
           {tcsim::Activation::kIdentity, tcsim::Activation::kRelu,
            tcsim::Activation::kRelu6, tcsim::Activation::kHardswish}) {
        for (const int rshift : {0, cal, cal + 2}) {
          FusedEpilogue epi;
          epi.act = act;
          epi.rshift = rshift;
          parity(layout + " fused " + tcsim::activation_name(act) + " >>" +
                     std::to_string(rshift),
                 a_bin, tile_map,
                 [&](const auto& a, ReuseMode mode, const BmmOptions& o) {
                   return plane_words(aggregate_fused_bit(
                       a, px, out_bits, epi, o, PadPolicy::kOperand128, mode));
                 });
        }
      }
    };
    all_outputs("dense", dense, nullptr);
    all_outputs("dense+map", dense, &map);
    all_outputs("tile-csr", sparse, nullptr);
  }
}

/// Code matrix storage pre-filled with a non-zero byte, so a producer that
/// leaves padding unwritten is caught.
AlignedVector<u8> code_storage(i64 rows, i64 cols) {
  return AlignedVector<u8>(
      static_cast<std::size_t>(CodeMatrix::bytes_for(rows, cols)), u8{0xA5});
}

/// `q` (codes below 2^bits) as the code matrix a fused producer hands over.
CodeMatrix to_codes(const MatrixI32& q, int bits, AlignedVector<u8>& storage) {
  std::fill(storage.begin(), storage.end(), u8{0});
  const CodeMatrix c = CodeMatrix::over(storage.data(), q.rows(), q.cols(), bits);
  for (i64 r = 0; r < q.rows(); ++r) {
    for (i64 j = 0; j < q.cols(); ++j) c.row(r)[j] = static_cast<u8>(q(r, j));
  }
  return c;
}

/// Every byte of `c`'s padded extent, after checking the padding is zero.
std::vector<u32> code_bytes(const CodeMatrix& c, const std::string& what) {
  std::vector<u32> out;
  for (i64 r = 0; r < c.padded_rows(); ++r) {
    for (i64 j = 0; j < c.stride; ++j) {
      if (r >= c.rows || j >= c.cols) {
        EXPECT_EQ(c.row(r)[j], 0) << what << ": padding at (" << r << "," << j
                                  << ")";
      }
      out.push_back(c.row(r)[j]);
    }
  }
  return out;
}

/// A random ragged extent in [lo, hi] that is not a multiple of `avoid`.
i64 ragged(Rng& rng, i64 lo, i64 hi, i64 avoid) {
  i64 v = rng.next_in(lo, hi);
  while (v % avoid == 0) v = rng.next_in(lo, hi);
  return v;
}

/// The counters the code handoff must leave unchanged.
void expect_same_counters(const tcsim::Counters& got, const tcsim::Counters& want,
                          const std::string& what) {
  EXPECT_EQ(got.bmma_ops, want.bmma_ops) << what;
  EXPECT_EQ(got.tiles_jumped, want.tiles_jumped) << what;
  EXPECT_EQ(got.gather_edges, want.gather_edges) << what;
  EXPECT_EQ(got.code_macs, want.code_macs) << what;
  EXPECT_EQ(got.int32_bytes_avoided, want.int32_bytes_avoided) << what;
}

// The code handoff, bit for bit, on every backend: the row gather and the
// code dot reading a code matrix against the same kernels reading the
// operand's planes (equal outputs and counters), and against the tile sweep
// with zero-tile jumping off (equal outputs). Outputs: int, unfused-into,
// codes and planes (both layouts for the update; aggregations write
// kRowMajorK), each with and without BN. The gather runs over dense (with
// and without a flag map) and tile-CSR adjacencies. m is not a multiple of
// 8, n not one of 16, and every code output has zero padding.
TEST_P(PipelineFuzz, CodeHandoffMatchesPlanesOnEveryBackend) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the code kernels run on little-endian hosts only";
  }
  Rng rng(static_cast<u64>(GetParam()) * 40503 + 17);
  const i64 m = ragged(rng, 1, 150, 8);
  const i64 k = rng.next_in(1, 300);
  const i64 n = ragged(rng, 1, 90, 16);
  const int s = static_cast<int>(rng.next_in(1, 8));
  const int t = static_cast<int>(rng.next_in(1, 8));
  const int out_bits = static_cast<int>(rng.next_in(1, 8));

  const MatrixI32 adj = random_adjacency(rng, m, k);
  const MatrixI32 x = random_codes(rng, k, n, s, 0.3f);  // aggregation X
  MatrixI32 a = random_codes(rng, m, k, s, 0.5f);  // update A
  // Zero some 8x128 tiles of A, so the code dot has tiles to jump.
  for (i64 r0 = 0; r0 < m; r0 += kTileM) {
    for (i64 k0 = 0; k0 < k; k0 += kTileK) {
      if (!rng.next_bool(0.4f)) continue;
      for (i64 i = r0; i < std::min(m, r0 + kTileM); ++i) {
        for (i64 j = k0; j < std::min(k, k0 + kTileK); ++j) a(i, j) = 0;
      }
    }
  }
  const MatrixI32 w = random_codes(rng, k, n, t, 0.3f);
  const BitMatrix dense = pack_nonzero(adj, BitLayout::kRowMajorK);
  const TileMap map = build_tile_map(dense);
  const TileSparseBitMatrix sparse = TileSparseBitMatrix::from_bit_matrix(dense);
  const auto px = StackedBitTensor::decompose(x, s, BitLayout::kColMajorK);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pw = StackedBitTensor::decompose(w, t, BitLayout::kColMajorK);
  AlignedVector<u8> x_store = code_storage(k, n), a_store = code_storage(m, k);
  const CodeMatrix cx = to_codes(x, s, x_store);
  const CodeMatrix ca = to_codes(a, s, a_store);

  const auto epilogue = [&](const MatrixI32& ref, bool bn) {
    i32 mx = 0;
    for (i64 i = 0; i < ref.size(); ++i) mx = std::max(mx, ref.data()[i]);
    FusedEpilogue e;
    e.act = bn ? tcsim::Activation::kRelu : tcsim::Activation::kIdentity;
    e.rshift = calibrate_rshift(mx, out_bits);
    e.use_bn = bn;
    for (i64 j = 0; bn && j < n; ++j) {
      e.bn_scale.push_back(rng.next_float(0.5f, 1.5f));
      e.bn_bias.push_back(rng.next_float(-20.0f, 20.0f));
    }
    return e;
  };
  const FusedEpilogue agg_epi[] = {epilogue(matmul_reference(adj, x), false),
                                   epilogue(matmul_reference(adj, x), true)};
  const FusedEpilogue upd_epi[] = {epilogue(matmul_reference(a, w), false),
                                   epilogue(matmul_reference(a, w), true)};

  using Output = std::function<std::vector<u32>(StageInput, ReuseMode,
                                                const BmmOptions&)>;
  for (const tcsim::BackendKind kind : tcsim::all_backends()) {
    const std::string be = tcsim::backend_name(kind);
    // `out` over the planes, over the codes, and the tile sweep over the
    // planes with jumping off.
    const auto check = [&](const std::string& what, StageInput planes,
                           StageInput codes, ReuseMode kernel,
                           const TileMap* tile_map, const Output& out) {
      const auto run = [&](StageInput in, ReuseMode mode, bool jump) {
        const tcsim::ExecutionContext ctx(kind);
        BmmOptions opt;
        opt.zero_tile_jump = jump;
        opt.tile_map = tile_map;
        opt.ctx = &ctx;
        std::vector<u32> got = out(in, mode, opt);
        return std::pair{std::move(got), ctx.counters()};
      };
      const std::string tag = what + " on " + be;
      const auto [want, wc] = run(planes, kernel, true);
      const auto [got, gc] = run(codes, kernel, true);
      EXPECT_TRUE(got == want) << tag;
      expect_same_counters(gc, wc, tag);
      EXPECT_TRUE(run(planes, ReuseMode::kCrossTile, false).first == want)
          << tag << " vs the jump-off sweep";
    };
    const auto matrix = [](const MatrixI32& mat) {
      return std::vector<u32>(mat.data(), mat.data() + mat.size());
    };

    const auto aggregations = [&](const std::string& layout, const auto& a_bin,
                                  const TileMap* tile_map) {
      const auto agg = [&](const std::string& what, const Output& out) {
        check("gather " + layout + " " + what, px, cx, ReuseMode::kRowGather,
              tile_map, out);
      };
      agg("int", [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
        return matrix(aggregate_1bit(a_bin, in, mode, o));
      });
      agg("unfused", [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
        MatrixI32 into(m, n, -1);
        aggregate_1bit_into(a_bin, in, mode, into, o);
        return matrix(into);
      });
      for (const FusedEpilogue& e : agg_epi) {
        const std::string bn = e.use_bn ? " bn" : "";
        agg("codes" + bn, [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
          AlignedVector<u8> store = code_storage(m, n);
          const CodeMatrix c = CodeMatrix::over(store.data(), m, n, out_bits);
          aggregate_fused_codes(a_bin, in, c, e, o, mode);
          const StackedBitTensor p = aggregate_fused_bit(
              a_bin, in, out_bits, e, o, PadPolicy::kTile8, mode);
          EXPECT_EQ(p.compose(), code_values(c)) << "codes vs planes" << bn;
          return code_bytes(c, "gather " + layout + " codes" + bn);
        });
        agg("planes" + bn, [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
          return plane_words(aggregate_fused_bit(a_bin, in, out_bits, e, o,
                                                 PadPolicy::kTile8, mode));
        });
      }
    };
    aggregations("dense", dense, nullptr);
    aggregations("dense+map", dense, &map);
    aggregations("tile-csr", sparse, nullptr);

    const auto upd = [&](const std::string& what, const Output& out) {
      check("code dot " + what, pa, ca, ReuseMode::kCodeDot, nullptr, out);
    };
    for (const FusedEpilogue& e : upd_epi) {
      const std::string bn = e.use_bn ? " bn" : "";
      upd("int" + bn, [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
        return matrix(bitmm_fused_int(in, pw, e, o, mode));
      });
      upd("unfused" + bn, [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
        MatrixI32 into(m, n, -1);
        bitmm_fused_int_into(in, pw, into, e, o, mode);
        return matrix(into);
      });
      upd("codes" + bn, [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
        AlignedVector<u8> store = code_storage(m, n);
        const CodeMatrix c = CodeMatrix::over(store.data(), m, n, out_bits);
        bitmm_fused_codes(in, pw, c, e, o, mode);
        return code_bytes(c, "code dot codes" + bn);
      });
      for (const BitLayout layout : {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
        upd((layout == BitLayout::kRowMajorK ? "row-major" : "col-major") + bn,
            [&](StageInput in, ReuseMode mode, const BmmOptions& o) {
              return plane_words(bitmm_fused_bit(in, pw, out_bits, e, o,
                                                 PadPolicy::kTile8, layout, mode));
            });
      }
    }
  }

  // The code kernels need jumping; the tile sweeps read planes only.
  BmmOptions no_jump;
  EXPECT_THROW((void)aggregate_1bit(dense, cx, ReuseMode::kRowGather, no_jump),
               std::invalid_argument);
  EXPECT_THROW((void)bitmm_fused_int(ca, pw, {}, no_jump, ReuseMode::kCodeDot),
               std::invalid_argument);
  BmmOptions jump;
  jump.zero_tile_jump = true;
  EXPECT_THROW((void)aggregate_1bit(dense, cx, ReuseMode::kCrossTile, jump),
               std::invalid_argument);
  EXPECT_THROW((void)bitmm_fused_int(ca, pw, {}, jump, ReuseMode::kCrossTile),
               std::invalid_argument);
}

TEST(RowGather, RejectsIneligibleStages) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the row gather runs on little-endian hosts only";
  }
  Rng rng(5);
  const MatrixI32 adj = random_adjacency(rng, 40, 90);
  const BitMatrix dense = pack_nonzero(adj, BitLayout::kRowMajorK);
  const TileSparseBitMatrix sparse = TileSparseBitMatrix::from_bit_matrix(dense);
  const auto x8 = StackedBitTensor::decompose(random_codes(rng, 90, 5, 8, 0.f),
                                              8, BitLayout::kColMajorK);
  const auto x9 = StackedBitTensor::decompose(random_codes(rng, 90, 5, 9, 0.f),
                                              9, BitLayout::kColMajorK);
  BmmOptions ok;
  ok.zero_tile_jump = true;
  EXPECT_NO_THROW((void)aggregate_1bit(sparse, x8, ReuseMode::kRowGather, ok));
  EXPECT_THROW((void)aggregate_1bit(sparse, x9, ReuseMode::kRowGather, ok),
               std::invalid_argument);
  BmmOptions no_jump = ok;
  no_jump.zero_tile_jump = false;
  EXPECT_THROW((void)aggregate_1bit(dense, x8, ReuseMode::kRowGather, no_jump),
               std::invalid_argument);
  EXPECT_THROW((void)aggregate_fused_bit(sparse, x8, 4, {}, no_jump,
                                         PadPolicy::kTile8, ReuseMode::kRowGather),
               std::invalid_argument);
  EXPECT_THROW((void)aggregate_fused_bit(sparse, x8, 9, {}, ok,
                                         PadPolicy::kTile8, ReuseMode::kRowGather),
               std::invalid_argument);
  BmmOptions wrap = ok;
  wrap.allow_overflow = true;
  EXPECT_THROW((void)aggregate_1bit(dense, x8, ReuseMode::kRowGather, wrap),
               std::invalid_argument);
  EXPECT_FALSE(row_gather_applies(4, BmmOptions{}));
  BmmOptions xor_op = ok;
  xor_op.op = tcsim::BmmaOp::kXor;
  EXPECT_FALSE(row_gather_applies(4, xor_op));
  EXPECT_TRUE(row_gather_applies(8, ok));
}

TEST(CodeDot, RejectsIneligibleStages) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the code dot runs on little-endian hosts only";
  }
  Rng rng(11);
  const auto a8 = StackedBitTensor::decompose(random_codes(rng, 20, 90, 8, 0.f),
                                              8, BitLayout::kRowMajorK);
  const auto a9 = StackedBitTensor::decompose(random_codes(rng, 20, 90, 9, 0.f),
                                              9, BitLayout::kRowMajorK);
  const auto w8 = StackedBitTensor::decompose(random_codes(rng, 90, 12, 8, 0.f),
                                              8, BitLayout::kColMajorK);
  const auto w9 = StackedBitTensor::decompose(random_codes(rng, 90, 12, 9, 0.f),
                                              9, BitLayout::kColMajorK);
  constexpr ReuseMode kDot = ReuseMode::kCodeDot;
  BmmOptions ok;
  ok.zero_tile_jump = true;
  EXPECT_NO_THROW((void)bitmm_fused_int(a8, w8, {}, ok, kDot));
  EXPECT_THROW((void)bitmm_fused_int(a9, w8, {}, ok, kDot), std::invalid_argument);
  EXPECT_THROW((void)bitmm_fused_bit(a8, w9, 4, {}, ok, PadPolicy::kTile8,
                                     BitLayout::kColMajorK, kDot),
               std::invalid_argument);
  BmmOptions no_jump = ok;
  no_jump.zero_tile_jump = false;
  EXPECT_THROW((void)bitmm_fused_int(a8, w8, {}, no_jump, kDot),
               std::invalid_argument);
  BmmOptions wrap = ok;
  wrap.allow_overflow = true;
  MatrixI32 out(20, 12);
  EXPECT_THROW(bitmm_fused_int_into(a8, w8, out, {}, wrap, kDot),
               std::invalid_argument);
  BmmOptions xor_op = ok;
  xor_op.op = tcsim::BmmaOp::kXor;
  EXPECT_FALSE(code_dot_applies(8, 8, xor_op));
  EXPECT_THROW((void)bitmm_fused_int(a8, w8, {}, xor_op, kDot),
               std::invalid_argument);
  EXPECT_TRUE(code_dot_applies(8, 8, ok));
  EXPECT_FALSE(code_dot_applies(8, 9, ok));
  // Updates run only the sweep or the code dot; aggregations never the dot.
  EXPECT_THROW((void)bitmm_fused_int(a8, w8, {}, ok, ReuseMode::kRowGather),
               std::invalid_argument);
  const BitMatrix adj = pack_nonzero(random_codes(rng, 20, 90, 1, 0.5f),
                                     BitLayout::kRowMajorK);
  EXPECT_THROW((void)aggregate_1bit(adj, w8, kDot, ok), std::invalid_argument);
}

TEST_P(PipelineFuzz, BinaryXnorMatchesReference) {
  Rng rng(static_cast<u64>(GetParam()) * 31337 + 3);
  const i64 m = rng.next_in(1, 60);
  const i64 k = rng.next_in(1, 280);
  const i64 n = rng.next_in(1, 30);
  MatrixI32 a(m, k), b(k, n);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_bool(0.5f) ? 1 : -1;
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_bool(0.5f) ? 1 : -1;
  const BitMatrix pa = gnn::pack_pm1(a, BitLayout::kRowMajorK);
  const BitMatrix pb = gnn::pack_pm1(b, BitLayout::kColMajorK);
  EXPECT_EQ(gnn::xnor_mm_pm1(pa, pb, k), matmul_reference(a, b));
}

INSTANTIATE_TEST_SUITE_P(Rounds, PipelineFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace qgtc

#include "tcsim/backend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/env.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace qgtc::tcsim {
namespace {

/// The code GEMM's reference loop (SubstrateBackend's base hook, and the
/// fallback of vector hooks whose ISA the running CPU lacks).
void code_gemm_rows_ref(i32* out, i64 out_stride, const i16* a, i64 a_stride,
                        i64 rows, const CodePanels& w, const KRun* runs,
                        i64 n_runs) {
  for (i64 i = 0; i < rows; ++i) {
    for (i64 p = 0; p < w.panels; ++p) {
      i32 sums[kCodePanelCols] = {};
      for (i64 r = 0; r < n_runs; ++r) {
        for (i64 k = 2 * runs[r].begin; k < 2 * runs[r].end; ++k) {
          const i32 av = a[i * a_stride + k];
          const i16* wk = w.panel(p) + (k / 2) * 2 * kCodePanelCols + k % 2;
          for (int j = 0; j < kCodePanelCols; ++j) sums[j] += av * wk[2 * j];
        }
      }
      std::memcpy(out + i * out_stride + p * kCodePanelCols, sums,
                  sizeof(sums));
    }
  }
}

/// The bit expansion's reference loop (the base hook, and the fallback of
/// the vector hook on CPUs without its ISA).
i64 expand_bits_ref(u64 bits, i32 base, i32* out) {
  i64 count = 0;
  for (; bits != 0; bits &= bits - 1) {
    out[count++] = base + std::countr_zero(bits);
  }
  return count;
}

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

/// The plane unpack's reference loop (the base hook, and the vector hook's
/// tail and fallback): per 8 rows x 8 columns, one byte per plane per column
/// spreads into eight code bytes, then an 8x8 byte transpose makes them
/// row-major.
void unpack_codes_ref(u8* codes, i64 stride, const u8* const* planes,
                      int bits, i64 line_bytes, i64 rows, i64 cols) {
  for (i64 g = 0; g < rows / 8; ++g) {
    u8* dst = codes + g * 8 * stride;
    for (i64 c0 = 0; c0 < cols; c0 += 8) {
      u64 r[8];
      for (int c = 0; c < 8; ++c) {
        const i64 at = (c0 + c) * line_bytes + g;
        u64 v = 0;
        for (int b = 0; b < bits; ++b) v |= kByteSpread[planes[b][at]] << b;
        r[c] = v;
      }
      transpose8x8_bytes(r);
      for (int i = 0; i < 8; ++i) std::memcpy(dst + i * stride + c0, &r[i], 8);
    }
  }
}

/// One A pair (two adjacent i16 codes) as the i32 a vector broadcasts.
inline i32 load_pair(const i16* a) {
  i32 v;
  std::memcpy(&v, a, sizeof(v));
  return v;
}

// ------------------------------------------------------------------------
// Portable u64 micro-kernels. Accumulator layout: u64[8][8] row-major
// (lanes 64..127 unused). These are the semantic reference — dot128 shape.
// ------------------------------------------------------------------------

struct ScalarKernels {
  static void load_a(AFragment& frag, const u32* a, i64 a_stride) {
    for (int i = 0; i < kTileM; ++i) {
      std::memcpy(&frag.lanes[static_cast<std::size_t>(i) * 8],
                  a + i * a_stride, 16);
    }
  }

  static void mma(u64* acc, const AFragment& frag, const u32* b, i64 b_stride,
                  int shift, bool use_xor) {
    for (int j = 0; j < kTileN; ++j) {
      u64 b0, b1;
      std::memcpy(&b0, b + j * b_stride, 8);
      std::memcpy(&b1, b + j * b_stride + 2, 8);
      for (int i = 0; i < kTileM; ++i) {
        const u64 a0 = frag.lanes[static_cast<std::size_t>(i) * 8];
        const u64 a1 = frag.lanes[static_cast<std::size_t>(i) * 8 + 1];
        const u64 cnt =
            use_xor
                ? static_cast<u64>(std::popcount(a0 ^ b0) + std::popcount(a1 ^ b1))
                : static_cast<u64>(std::popcount(a0 & b0) + std::popcount(a1 & b1));
        acc[static_cast<std::size_t>(i) * kTileN + j] += cnt << shift;
      }
    }
  }

  static void flush(i32* out, i64 out_stride, const u64* acc) {
    for (int i = 0; i < kTileM; ++i) {
      i32* row = out + i * out_stride;
      for (int j = 0; j < kTileN; ++j) {
        row[j] = static_cast<i32>(
            static_cast<u32>(row[j]) +
            static_cast<u32>(acc[static_cast<std::size_t>(i) * kTileN + j]));
      }
    }
  }

  /// Drain the accumulator into a row-major i32[64] tile with the uint32-wrap
  /// truncation (the lane-combine half of flush, shared by the epilogue
  /// variants).
  static void reduce(i32* vals, const u64* acc) {
    for (int k = 0; k < kTileM * kTileN; ++k) {
      vals[k] = static_cast<i32>(static_cast<u32>(acc[k]));
    }
  }
};

/// Compile-time SIMD fallback: same layout as ScalarKernels but the B tile
/// is decoded once per tile op (u64 x 4 words) and the inner loop is
/// unrolled over column pairs — the best a portable build can do.
struct U64x4Kernels {
  static void load_a(AFragment& frag, const u32* a, i64 a_stride) {
    ScalarKernels::load_a(frag, a, a_stride);
  }

  static void mma(u64* acc, const AFragment& frag, const u32* b, i64 b_stride,
                  int shift, bool use_xor) {
    u64 bl[kTileN][2];
    for (int j = 0; j < kTileN; ++j) {
      std::memcpy(&bl[j][0], b + j * b_stride, 8);
      std::memcpy(&bl[j][1], b + j * b_stride + 2, 8);
    }
    for (int i = 0; i < kTileM; ++i) {
      const u64 a0 = frag.lanes[static_cast<std::size_t>(i) * 8];
      const u64 a1 = frag.lanes[static_cast<std::size_t>(i) * 8 + 1];
      u64* row = acc + static_cast<std::size_t>(i) * kTileN;
      if (use_xor) {
        for (int j = 0; j < kTileN; j += 2) {
          row[j] += static_cast<u64>(std::popcount(a0 ^ bl[j][0]) +
                                     std::popcount(a1 ^ bl[j][1]))
                    << shift;
          row[j + 1] += static_cast<u64>(std::popcount(a0 ^ bl[j + 1][0]) +
                                         std::popcount(a1 ^ bl[j + 1][1]))
                        << shift;
        }
      } else {
        for (int j = 0; j < kTileN; j += 2) {
          row[j] += static_cast<u64>(std::popcount(a0 & bl[j][0]) +
                                     std::popcount(a1 & bl[j][1]))
                    << shift;
          row[j + 1] += static_cast<u64>(std::popcount(a0 & bl[j + 1][0]) +
                                         std::popcount(a1 & bl[j + 1][1]))
                        << shift;
        }
      }
    }
  }

  static void flush(i32* out, i64 out_stride, const u64* acc) {
    ScalarKernels::flush(out, out_stride, acc);
  }

  static void reduce(i32* vals, const u64* acc) {
    ScalarKernels::reduce(vals, acc);
  }
};

#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512F__)

/// AVX-512 VPOPCNTDQ: one 512-bit vector holds four B columns (4 x 128-bit
/// lanes). Accumulator layout: __m512i[8][2] = 128 u64 per tile, per-lane
/// partial sums combined at flush (matches detail::TileAcc's AVX-512 path).
struct Avx512Kernels {
  static void load_a(AFragment& frag, const u32* a, i64 a_stride) {
    for (int i = 0; i < kTileM; ++i) {
      const __m512i v = _mm512_broadcast_i32x4(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i * a_stride)));
      _mm512_store_si512(
          reinterpret_cast<__m512i*>(&frag.lanes[static_cast<std::size_t>(i) * 8]), v);
    }
  }

  static void mma(u64* acc, const AFragment& frag, const u32* b, i64 b_stride,
                  int shift, bool use_xor) {
    __m512i bc[2];
    for (int g = 0; g < 2; ++g) {
      __m512i v = _mm512_castsi128_si512(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(b + (4 * g) * b_stride)));
      v = _mm512_inserti32x4(v, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                    b + (4 * g + 1) * b_stride)), 1);
      v = _mm512_inserti32x4(v, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                    b + (4 * g + 2) * b_stride)), 2);
      v = _mm512_inserti32x4(v, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                    b + (4 * g + 3) * b_stride)), 3);
      bc[g] = v;
    }
    for (int i = 0; i < kTileM; ++i) {
      const __m512i av = _mm512_load_si512(reinterpret_cast<const __m512i*>(
          &frag.lanes[static_cast<std::size_t>(i) * 8]));
      for (int g = 0; g < 2; ++g) {
        __m512i* slot = reinterpret_cast<__m512i*>(acc + (i * 2 + g) * 8);
        const __m512i mixed =
            use_xor ? _mm512_xor_si512(av, bc[g]) : _mm512_and_si512(av, bc[g]);
        const __m512i cnt = _mm512_popcnt_epi64(mixed);
        _mm512_storeu_si512(
            slot, _mm512_add_epi64(
                      _mm512_loadu_si512(slot),
                      _mm512_slli_epi64(cnt, static_cast<unsigned>(shift))));
      }
    }
  }

  static void flush(i32* out, i64 out_stride, const u64* acc) {
    for (int i = 0; i < kTileM; ++i) {
      i32* row = out + i * out_stride;
      for (int g = 0; g < 2; ++g) {
        const u64* tmp = acc + (i * 2 + g) * 8;
        for (int c = 0; c < 4; ++c) {
          const int j = 4 * g + c;
          row[j] = static_cast<i32>(static_cast<u32>(row[j]) +
                                    static_cast<u32>(tmp[2 * c] + tmp[2 * c + 1]));
        }
      }
    }
  }

  static void reduce(i32* vals, const u64* acc) {
    for (int i = 0; i < kTileM; ++i) {
      for (int g = 0; g < 2; ++g) {
        const u64* tmp = acc + (i * 2 + g) * 8;
        for (int c = 0; c < 4; ++c) {
          vals[i * kTileN + 4 * g + c] =
              static_cast<i32>(static_cast<u32>(tmp[2 * c] + tmp[2 * c + 1]));
        }
      }
    }
  }

  /// Up to 64 columns per pass, held in NV zmm accumulators across the
  /// whole neighbour list (16 u8 codes widened to i32 per load).
  template <int NV>
  static void add_code_block(i32* acc, const u8* codes, i64 stride,
                             const i32* rows, i64 count) {
    __m512i s[NV];
    for (int v = 0; v < NV; ++v) s[v] = _mm512_loadu_si512(acc + 16 * v);
    for (i64 t = 0; t < count; ++t) {
      const u8* src = codes + static_cast<i64>(rows[t]) * stride;
      for (int v = 0; v < NV; ++v) {
        s[v] = _mm512_add_epi32(
            s[v], _mm512_cvtepu8_epi32(_mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(src + 16 * v))));
      }
    }
    for (int v = 0; v < NV; ++v) _mm512_storeu_si512(acc + 16 * v, s[v]);
  }

#if defined(__AVX512BW__)
  /// s + a . b over 16 i16 K-pairs per i32 lane (VNNI vpdpwssd when compiled
  /// in, else vpmaddwd + add; the same exact sums either way).
  static __m512i dot_pairs(__m512i s, __m512i a, __m512i b) {
#if defined(__AVX512VNNI__)
    return _mm512_dpwssd_epi32(s, a, b);
#else
    return _mm512_add_epi32(s, _mm512_madd_epi16(a, b));
#endif
  }

  /// R rows x P panels (from panel p0) of i32 accumulators, held in
  /// registers across every run: per K pair, P panel loads and R broadcast
  /// A pairs, R * P dot_pairs and no horizontal reduction.
  template <int R, int P>
  static void gemm_block(i32* out, i64 out_stride, const i16* a, i64 a_stride,
                         const CodePanels& w, i64 p0, const KRun* runs,
                         i64 n_runs) {
    __m512i acc[R][P];
    for (auto& row : acc) {
      for (__m512i& v : row) v = _mm512_setzero_si512();
    }
    for (i64 r = 0; r < n_runs; ++r) {
      for (i64 kk = runs[r].begin; kk < runs[r].end; ++kk) {
        __m512i wv[P];
        for (int p = 0; p < P; ++p) {
          wv[p] = _mm512_loadu_si512(w.panel(p0 + p) + kk * 2 * kCodePanelCols);
        }
        for (int i = 0; i < R; ++i) {
          const __m512i av = _mm512_set1_epi32(load_pair(a + i * a_stride + 2 * kk));
          for (int p = 0; p < P; ++p) acc[i][p] = dot_pairs(acc[i][p], av, wv[p]);
        }
      }
    }
    for (int i = 0; i < R; ++i) {
      for (int p = 0; p < P; ++p) {
        _mm512_storeu_si512(out + i * out_stride + (p0 + p) * kCodePanelCols,
                            acc[i][p]);
      }
    }
  }

  using GemmBlock = void (*)(i32*, i64, const i16*, i64, const CodePanels&,
                             i64, const KRun*, i64);

  /// gemm_block<R, P>, or null for the shapes code_gemm_rows never runs
  /// (more than 16 accumulators).
  template <int R, int P>
  static constexpr GemmBlock block_fn() {
    if constexpr (R * P > 16) {
      return nullptr;
    } else {
      return &gemm_block<R, P>;
    }
  }

  template <std::size_t... I>
  static constexpr std::array<GemmBlock, sizeof...(I)> block_table(
      std::index_sequence<I...>) {
    return {block_fn<static_cast<int>(I / 4) + 1, static_cast<int>(I % 4) + 1>()...};
  }

  /// Up to 4 panels per pass (64 output columns), with 8 rows per pass at
  /// one or two panels and 4 rows at three or four (at most 16 zmm
  /// accumulators).
  static void code_gemm_rows(i32* out, i64 out_stride, const i16* a,
                             i64 a_stride, i64 rows, const CodePanels& w,
                             const KRun* runs, i64 n_runs) {
    static const bool ok = __builtin_cpu_supports("avx512bw")
#if defined(__AVX512VNNI__)
                           && __builtin_cpu_supports("avx512vnni")
#endif
        ;
    if (!ok) {
      code_gemm_rows_ref(out, out_stride, a, a_stride, rows, w, runs, n_runs);
      return;
    }
    static constexpr auto kBlocks = block_table(std::make_index_sequence<32>{});
    for (i64 p0 = 0; p0 < w.panels; p0 += 4) {
      const i64 np = std::min<i64>(4, w.panels - p0);
      const i64 pass = np <= 2 ? 8 : 4;
      for (i64 i0 = 0; i0 < rows; i0 += pass) {
        const i64 nr = std::min(pass, rows - i0);
        kBlocks[static_cast<std::size_t>((nr - 1) * 4 + np - 1)](
            out + i0 * out_stride, out_stride, a + i0 * a_stride, a_stride, w,
            p0, runs, n_runs);
      }
    }
  }

  /// In-place transpose of the 8x8 qword matrix z (qword q of z[r] is
  /// element (r, q)): three rounds of vpermt2q over register pairs 1, 2 and
  /// 4 apart.
  static void transpose8x8_qwords(__m512i (&z)[8]) {
    const auto round = [&](int dist, __m512i lo, __m512i hi) {
      for (int r = 0; r < 8; ++r) {
        if ((r & dist) != 0) continue;
        const __m512i a = z[r];
        z[r] = _mm512_permutex2var_epi64(a, lo, z[r + dist]);
        z[r + dist] = _mm512_permutex2var_epi64(a, hi, z[r + dist]);
      }
    };
    round(1, _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14),
          _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15));
    round(2, _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
          _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15));
    round(4, _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
          _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15));
  }

  /// 64 rows x 8 columns per step: each plane's 64 row bits of a column
  /// select (masked mov) its bit value into the column's 64 code bytes, an
  /// 8x8 qword transpose puts 8 rows of all 8 columns into each vector
  /// (qword c = column c), and an in-lane byte shuffle plus a word permute
  /// make each row's 8 codes contiguous. Rows past the last multiple of 64
  /// go to the reference loop.
  static void unpack_codes(u8* codes, i64 stride, const u8* const* planes,
                           int bits, i64 line_bytes, i64 rows, i64 cols) {
    static const bool ok = __builtin_cpu_supports("avx512bw");
    const i64 rows64 = ok ? rows / 64 * 64 : 0;
    // Lane bytes (column 2L + c, row n) at 8c + n -> 2n + c; then word
    // (lane L, row n) at 8L + n -> 4n + L.
    const __m512i pair_rows = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15));
    const __m512i row_words = _mm512_set_epi16(
        31, 23, 15, 7, 30, 22, 14, 6, 29, 21, 13, 5, 28, 20, 12, 4, 27, 19, 11,
        3, 26, 18, 10, 2, 25, 17, 9, 1, 24, 16, 8, 0);
    for (i64 v0 = 0; v0 < rows64; v0 += 64) {
      for (i64 c0 = 0; c0 < cols; c0 += 8) {
        __m512i z[8];
        for (int c = 0; c < 8; ++c) {
          z[c] = _mm512_setzero_si512();
          for (int b = 0; b < bits; ++b) {
            u64 m;
            std::memcpy(&m, planes[b] + (c0 + c) * line_bytes + v0 / 8,
                        sizeof(m));
            z[c] = _mm512_or_si512(
                z[c], _mm512_maskz_mov_epi8(m, _mm512_set1_epi8(
                                                   static_cast<char>(1 << b))));
          }
        }
        transpose8x8_qwords(z);
        for (int q = 0; q < 8; ++q) {
          alignas(64) u8 rows8[64];
          _mm512_store_si512(
              rows8, _mm512_permutexvar_epi16(
                         row_words, _mm512_shuffle_epi8(z[q], pair_rows)));
          u8* dst = codes + (v0 + 8 * q) * stride + c0;
          for (int n = 0; n < 8; ++n) std::memcpy(dst + n * stride, rows8 + 8 * n, 8);
        }
      }
    }
    if (rows64 == rows) return;
    const u8* tail[8];
    for (int b = 0; b < bits; ++b) tail[b] = planes[b] + rows64 / 8;
    unpack_codes_ref(codes + rows64 * stride, stride, tail, bits, line_bytes,
                     rows - rows64, cols);
  }
#endif  // AVX512BW

#if defined(__AVX512VBMI2__)
  /// vpcompressb packs the set bits' indices out of a byte iota; each 16 of
  /// them widen to i32, add `base` and store under a mask, so nothing past
  /// the count is written.
  static i64 expand_bits(u64 bits, i32 base, i32* out) {
    static const bool ok = __builtin_cpu_supports("avx512vbmi2");
    if (!ok) return expand_bits_ref(bits, base, out);
    const __m512i iota = _mm512_set_epi8(
        63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47,
        46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29,
        28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11,
        10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i idx = _mm512_maskz_compress_epi8(bits, iota);
    const __m512i b = _mm512_set1_epi32(base);
    const int count = std::popcount(bits);
    const auto put = [&](int at, __m128i part) {
      const int left = std::min(count - at, 16);
      _mm512_mask_storeu_epi32(
          out + at, static_cast<__mmask16>((u32{1} << left) - 1),
          _mm512_add_epi32(_mm512_cvtepu8_epi32(part), b));
    };
    put(0, _mm512_castsi512_si128(idx));
    if (count > 16) put(16, _mm512_extracti32x4_epi32(idx, 1));
    if (count > 32) put(32, _mm512_extracti32x4_epi32(idx, 2));
    if (count > 48) put(48, _mm512_extracti32x4_epi32(idx, 3));
    return count;
  }
#endif  // AVX512VBMI2

  static void add_code_rows(i32* acc, const u8* codes, i64 stride, i64 width,
                            const i32* rows, i64 count) {
    for (i64 j0 = 0; j0 < width; j0 += 64) {
      i32* a = acc + j0;
      const u8* c = codes + j0;
      switch (std::min<i64>(width - j0, 64) / 16) {
        case 1: add_code_block<1>(a, c, stride, rows, count); break;
        case 2: add_code_block<2>(a, c, stride, rows, count); break;
        case 3: add_code_block<3>(a, c, stride, rows, count); break;
        default: add_code_block<4>(a, c, stride, rows, count); break;
      }
    }
  }
};

#endif  // AVX512VPOPCNTDQ

#if defined(__AVX2__)

/// Per-byte popcount of a 256-bit vector via the classic 4-bit LUT
/// (sidesteps the scalar POPCNT port bottleneck on this tile shape).
inline __m256i popcount_bytes_256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// AVX2: one 256-bit vector holds two B columns. Accumulator layout:
/// __m256i[8][4] = 128 u64 per tile (per-vpsadbw-lane partial sums).
struct Avx2Kernels {
  static void load_a(AFragment& frag, const u32* a, i64 a_stride) {
    for (int i = 0; i < kTileM; ++i) {
      const __m256i v = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i * a_stride)));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(&frag.lanes[static_cast<std::size_t>(i) * 8]), v);
    }
  }

  static void mma(u64* acc, const AFragment& frag, const u32* b, i64 b_stride,
                  int shift, bool use_xor) {
    __m256i bc[4];
    for (int p = 0; p < 4; ++p) {
      const __m128i lo = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(b + (2 * p) * b_stride));
      const __m128i hi = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(b + (2 * p + 1) * b_stride));
      bc[p] = _mm256_set_m128i(hi, lo);
    }
    const __m256i zero = _mm256_setzero_si256();
    for (int i = 0; i < kTileM; ++i) {
      const __m256i av = _mm256_load_si256(reinterpret_cast<const __m256i*>(
          &frag.lanes[static_cast<std::size_t>(i) * 8]));
      for (int p = 0; p < 4; ++p) {
        __m256i* slot = reinterpret_cast<__m256i*>(acc + (i * 4 + p) * 4);
        const __m256i x =
            use_xor ? _mm256_xor_si256(av, bc[p]) : _mm256_and_si256(av, bc[p]);
        const __m256i sums = _mm256_sad_epu8(popcount_bytes_256(x), zero);
        _mm256_storeu_si256(
            slot, _mm256_add_epi64(_mm256_loadu_si256(slot),
                                   _mm256_slli_epi64(sums, shift)));
      }
    }
  }

  static void flush(i32* out, i64 out_stride, const u64* acc) {
    for (int i = 0; i < kTileM; ++i) {
      i32* row = out + i * out_stride;
      for (int p = 0; p < 4; ++p) {
        const u64* tmp = acc + (i * 4 + p) * 4;
        row[2 * p] = static_cast<i32>(static_cast<u32>(row[2 * p]) +
                                      static_cast<u32>(tmp[0] + tmp[1]));
        row[2 * p + 1] = static_cast<i32>(static_cast<u32>(row[2 * p + 1]) +
                                          static_cast<u32>(tmp[2] + tmp[3]));
      }
    }
  }

  static void reduce(i32* vals, const u64* acc) {
    for (int i = 0; i < kTileM; ++i) {
      for (int p = 0; p < 4; ++p) {
        const u64* tmp = acc + (i * 4 + p) * 4;
        vals[i * kTileN + 2 * p] =
            static_cast<i32>(static_cast<u32>(tmp[0] + tmp[1]));
        vals[i * kTileN + 2 * p + 1] =
            static_cast<i32>(static_cast<u32>(tmp[2] + tmp[3]));
      }
    }
  }

  /// R rows x one panel (two ymm halves of 8 columns) of i32 accumulators
  /// across every run: vpmaddwd of each broadcast A pair against the panel.
  template <int R>
  static void gemm_panel(i32* out, i64 out_stride, const i16* a, i64 a_stride,
                         const i16* panel, const KRun* runs, i64 n_runs) {
    __m256i acc[R][2];
    for (auto& row : acc) row[0] = row[1] = _mm256_setzero_si256();
    for (i64 r = 0; r < n_runs; ++r) {
      for (i64 kk = runs[r].begin; kk < runs[r].end; ++kk) {
        const i16* wk = panel + kk * 2 * kCodePanelCols;
        const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wk));
        const __m256i w1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wk + kCodePanelCols));
        for (int i = 0; i < R; ++i) {
          const __m256i av = _mm256_set1_epi32(load_pair(a + i * a_stride + 2 * kk));
          acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(av, w0));
          acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(av, w1));
        }
      }
    }
    for (int i = 0; i < R; ++i) {
      for (int h = 0; h < 2; ++h) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * out_stride + 8 * h),
                            acc[i][h]);
      }
    }
  }

  /// One panel x 4 rows per pass (8 ymm accumulators). The AVX2 kernels only
  /// run on CPUs runtime_simd_ok found AVX2 on.
  static void code_gemm_rows(i32* out, i64 out_stride, const i16* a,
                             i64 a_stride, i64 rows, const CodePanels& w,
                             const KRun* runs, i64 n_runs) {
    for (i64 p = 0; p < w.panels; ++p) {
      i32* o = out + p * kCodePanelCols;
      for (i64 i0 = 0; i0 < rows; i0 += 4) {
        const i16* ai = a + i0 * a_stride;
        i32* oi = o + i0 * out_stride;
        switch (std::min<i64>(4, rows - i0)) {
          case 1: gemm_panel<1>(oi, out_stride, ai, a_stride, w.panel(p), runs, n_runs); break;
          case 2: gemm_panel<2>(oi, out_stride, ai, a_stride, w.panel(p), runs, n_runs); break;
          case 3: gemm_panel<3>(oi, out_stride, ai, a_stride, w.panel(p), runs, n_runs); break;
          default: gemm_panel<4>(oi, out_stride, ai, a_stride, w.panel(p), runs, n_runs); break;
        }
      }
    }
  }
};

#endif  // AVX2

// ------------------------------------------------------------------------
// Registry plumbing
// ------------------------------------------------------------------------

template <typename Kernels>
class BackendImpl final : public SubstrateBackend {
 public:
  BackendImpl(BackendKind kind, const char* name, i64 width)
      : kind_(kind), name_(name), width_(width) {}

  [[nodiscard]] BackendKind kind() const override { return kind_; }
  [[nodiscard]] const char* name() const override { return name_; }
  [[nodiscard]] i64 panel_width() const override { return width_; }

  void load_a(AFragment& frag, const u32* a, i64 a_stride) const override {
    Kernels::load_a(frag, a, a_stride);
  }
  void mma(u64* acc, const AFragment& frag, const u32* b, i64 b_stride,
           int shift, bool use_xor) const override {
    Kernels::mma(acc, frag, b, b_stride, shift, use_xor);
  }
  void flush(i32* out, i64 out_stride, const u64* acc) const override {
    Kernels::flush(out, out_stride, acc);
  }
  void flush_epilogue(i32* out, i64 out_stride, const u64* acc,
                      const EpilogueSpec& spec) const override {
    alignas(64) i32 vals[kTileM * kTileN];
    Kernels::reduce(vals, acc);
    if (!spec.is_raw()) {
      for (int k = 0; k < kTileM * kTileN; ++k) {
        vals[k] = apply_epilogue(vals[k], spec);
      }
    }
    for (int i = 0; i < kTileM; ++i) {
      std::memcpy(out + i * out_stride, vals + i * kTileN,
                  kTileN * sizeof(i32));
    }
  }
  void flush_planes(const PlaneSink& sink, const u64* acc,
                    const EpilogueSpec& spec) const override {
    alignas(64) i32 vals[kTileM * kTileN];
    Kernels::reduce(vals, acc);
    for (int k = 0; k < kTileM * kTileN; ++k) {
      vals[k] = apply_epilogue(vals[k], spec);
    }
    scatter_planes(sink, vals);
  }
  void add_code_rows(i32* acc, const u8* codes, i64 stride, i64 width,
                     const i32* rows, i64 count) const override {
    // The AVX-512 micro-kernel brings its own widened add; the others keep
    // the base loop (the scalar reference among them).
    if constexpr (requires {
                    Kernels::add_code_rows(acc, codes, stride, width, rows,
                                           count);
                  }) {
      Kernels::add_code_rows(acc, codes, stride, width, rows, count);
    } else {
      SubstrateBackend::add_code_rows(acc, codes, stride, width, rows, count);
    }
  }
  i64 expand_bits(u64 bits, i32 base, i32* out) const override {
    // The AVX-512 (VBMI2) micro-kernel brings a vpcompressb expansion; the
    // others keep the base loop.
    if constexpr (requires { Kernels::expand_bits(bits, base, out); }) {
      return Kernels::expand_bits(bits, base, out);
    } else {
      return SubstrateBackend::expand_bits(bits, base, out);
    }
  }
  void unpack_codes(u8* codes, i64 stride, const u8* const* planes, int bits,
                    i64 line_bytes, i64 rows, i64 cols) const override {
    // The AVX-512 (BW) micro-kernel brings a 64-row transpose; the others
    // keep the base loop.
    if constexpr (requires {
                    Kernels::unpack_codes(codes, stride, planes, bits,
                                          line_bytes, rows, cols);
                  }) {
      Kernels::unpack_codes(codes, stride, planes, bits, line_bytes, rows, cols);
    } else {
      SubstrateBackend::unpack_codes(codes, stride, planes, bits, line_bytes,
                                     rows, cols);
    }
  }
  void code_gemm_rows(i32* out, i64 out_stride, const i16* a, i64 a_stride,
                      i64 rows, const CodePanels& w, const KRun* runs,
                      i64 n_runs) const override {
    // The AVX-512 (BW) and AVX2 micro-kernels bring a register-blocked
    // broadcast GEMM; the others keep the base loop.
    if constexpr (requires {
                    Kernels::code_gemm_rows(out, out_stride, a, a_stride, rows,
                                            w, runs, n_runs);
                  }) {
      Kernels::code_gemm_rows(out, out_stride, a, a_stride, rows, w, runs,
                              n_runs);
    } else {
      SubstrateBackend::code_gemm_rows(out, out_stride, a, a_stride, rows, w,
                                       runs, n_runs);
    }
  }

 private:
  BackendKind kind_;
  const char* name_;
  i64 width_;
};

/// §4.4 cross-tile blocking factor used by kBlocked (output-column tiles a
/// decoded A fragment stays resident for).
constexpr i64 kPanelWidth = 8;

/// True when the vector micro-kernels compiled in are usable on this CPU.
bool runtime_simd_ok() {
#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512F__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#elif defined(__AVX2__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const SubstrateBackend& simd_impl(BackendKind kind, i64 width) {
#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512F__)
  if (runtime_simd_ok()) {
    static const BackendImpl<Avx512Kernels> simd{BackendKind::kSimd,
                                                 "simd(avx512)", 1};
    static const BackendImpl<Avx512Kernels> blocked{BackendKind::kBlocked,
                                                    "blocked(avx512)", kPanelWidth};
    return kind == BackendKind::kSimd ? static_cast<const SubstrateBackend&>(simd)
                                      : blocked;
  }
#elif defined(__AVX2__)
  if (runtime_simd_ok()) {
    static const BackendImpl<Avx2Kernels> simd{BackendKind::kSimd, "simd(avx2)",
                                               1};
    static const BackendImpl<Avx2Kernels> blocked{BackendKind::kBlocked,
                                                  "blocked(avx2)", kPanelWidth};
    return kind == BackendKind::kSimd ? static_cast<const SubstrateBackend&>(simd)
                                      : blocked;
  }
#endif
  static const BackendImpl<U64x4Kernels> simd{BackendKind::kSimd, "simd(u64x4)",
                                              1};
  static const BackendImpl<U64x4Kernels> blocked{BackendKind::kBlocked,
                                                 "blocked(u64x4)", kPanelWidth};
  (void)width;
  return kind == BackendKind::kSimd ? static_cast<const SubstrateBackend&>(simd)
                                    : blocked;
}

}  // namespace

void SubstrateBackend::flush_epilogue(i32* out, i64 out_stride, const u64* acc,
                                      const EpilogueSpec& spec) const {
  // Generic drain: zero a scratch tile, add-flush into it (uint32-wrap), then
  // requantize. BackendImpl overrides skip the zero+add round trip.
  alignas(64) i32 vals[kTileM * kTileN] = {};
  flush(vals, kTileN, acc);
  if (!spec.is_raw()) {
    for (int k = 0; k < kTileM * kTileN; ++k) {
      vals[k] = apply_epilogue(vals[k], spec);
    }
  }
  for (int i = 0; i < kTileM; ++i) {
    std::memcpy(out + i * out_stride, vals + i * kTileN, kTileN * sizeof(i32));
  }
}

void SubstrateBackend::flush_planes(const PlaneSink& sink, const u64* acc,
                                    const EpilogueSpec& spec) const {
  alignas(64) i32 vals[kTileM * kTileN] = {};
  flush(vals, kTileN, acc);
  for (int k = 0; k < kTileM * kTileN; ++k) {
    vals[k] = apply_epilogue(vals[k], spec);
  }
  scatter_planes(sink, vals);
}

void SubstrateBackend::mma_tile_list(u64* acc, const SparseTileRef* tiles,
                                     i64 n_tiles, i64 a_stride,
                                     const u32* b_cols, i64 b_stride, i64 nb,
                                     int shift, bool use_xor) const {
  AFragment frag;
  for (i64 t = 0; t < n_tiles; ++t) {
    load_a(frag, tiles[t].a, a_stride);
    const u32* bk = b_cols + tiles[t].k_tile * kTileKWords;
    for (i64 blk = 0; blk < nb; ++blk) {
      mma(acc + blk * kTileAccLanes, frag, bk + blk * kTileN * b_stride,
          b_stride, shift, use_xor);
    }
  }
}

void SubstrateBackend::add_code_rows(i32* acc, const u8* codes, i64 stride,
                                     i64 width, const i32* rows,
                                     i64 count) const {
  for (i64 t = 0; t < count; ++t) {
    const u8* src = codes + static_cast<i64>(rows[t]) * stride;
    for (i64 j = 0; j < width; ++j) acc[j] += static_cast<i32>(src[j]);
  }
}

i64 SubstrateBackend::expand_bits(u64 bits, i32 base, i32* out) const {
  return expand_bits_ref(bits, base, out);
}

void SubstrateBackend::unpack_codes(u8* codes, i64 stride,
                                    const u8* const* planes, int bits,
                                    i64 line_bytes, i64 rows, i64 cols) const {
  unpack_codes_ref(codes, stride, planes, bits, line_bytes, rows, cols);
}

void SubstrateBackend::code_gemm_rows(i32* out, i64 out_stride, const i16* a,
                                      i64 a_stride, i64 rows,
                                      const CodePanels& w, const KRun* runs,
                                      i64 n_runs) const {
  code_gemm_rows_ref(out, out_stride, a, a_stride, rows, w, runs, n_runs);
}

const SubstrateBackend& backend(BackendKind k) {
  switch (k) {
    case BackendKind::kScalar: {
      static const BackendImpl<ScalarKernels> scalar{BackendKind::kScalar,
                                                     "scalar", 1};
      return scalar;
    }
    case BackendKind::kSimd:
      return simd_impl(BackendKind::kSimd, 1);
    case BackendKind::kBlocked:
      return simd_impl(BackendKind::kBlocked, kPanelWidth);
  }
  throw std::invalid_argument("unknown BackendKind");
}

const char* backend_name(BackendKind k) { return backend(k).name(); }

BackendKind parse_backend(std::string_view name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "simd") return BackendKind::kSimd;
  if (name == "blocked") return BackendKind::kBlocked;
  throw std::invalid_argument("unknown backend '" + std::string(name) +
                              "' (expected scalar|simd|blocked)");
}

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kRelu6: return "relu6";
    case Activation::kHardswish: return "hardswish";
  }
  return "?";
}

Activation parse_activation(std::string_view name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "relu6") return Activation::kRelu6;
  if (name == "hardswish") return Activation::kHardswish;
  throw std::invalid_argument("unknown activation '" + std::string(name) +
                              "' (expected identity|relu|relu6|hardswish)");
}

std::vector<BackendKind> all_backends() {
  return {BackendKind::kScalar, BackendKind::kSimd, BackendKind::kBlocked};
}

bool simd_active() { return runtime_simd_ok(); }

BackendKind default_backend() {
  // Falls back (with a warning) instead of throwing: this runs from default
  // member initializers, where an unparsable env var must not terminate.
  static const BackendKind kind = [] {
    const std::string s = env_str("QGTC_BACKEND", "blocked");
    try {
      return parse_backend(s);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "QGTC_BACKEND ignored: %s\n", e.what());
      return BackendKind::kBlocked;
    }
  }();
  return kind;
}

}  // namespace qgtc::tcsim

// Update-kernel A/B: the tile sweep (s·t 1-bit plane-pair BMMs, Algorithm 1)
// against the code dot (one exact int32 GEMM over u8 codes) on one
// hidden-layer update, for each plane-pair count s·t at output widths 16
// and 64. Columns:
//  * sweep, code dot, codes in: kColMajorK planes out (the planes the next
//    tile-sweep aggregation consumes); the code dot runs on a planes input,
//    which it unpacks to codes per work item, and on a codes input (the
//    CodeMatrix a fused producer hands a code-kernel consumer), read in
//    place. These calls pack W per call, as the free entry points do.
//  * sweep codes / codes out: u8 codes out, the form a forward stage writes
//    for a code-kernel consumer. The sweep reads planes; the code dot reads
//    codes and W packed once (PackedCodes), as QgtcModel's stages do. Their
//    ratio is why update stages run the code dot at every plane-pair count
//    where it is exact (DESIGN.md, "Update kernels").
//  * GMAC/s of the codes-out code dot (rows x K x N logical MACs), its
//    fraction of a measured vpdpwssd peak (one core, 16 register
//    accumulators; "-" where the build has no AVX-512 VNNI), and
//    baselines::gemm_f32 on the same fp32 shape.
//
// Shape: a 512-row batch of dense s-bit activations (K = width, as in the
// hidden layers of Fig. 7a/7b) times a t-bit width x width weight, one
// thread — the engine's compute workers run kernels single-threaded.
// Exits 1 if the kernels disagree on any output plane word or code.
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#if defined(__AVX512VNNI__)
#include <immintrin.h>
#endif

#include "baselines/dgl_fp32.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "kernels/anybit_mm.hpp"
#include "parallel/parallel_for.hpp"

namespace {

/// MAC/s of a register-resident vpdpwssd loop (16 independent accumulators,
/// 32 i16 MACs per instruction) on this core; 0 without AVX-512 VNNI.
double vpdpwssd_peak_macs(double min_s) {
#if defined(__AVX512VNNI__)
  constexpr int kAcc = 16;
  constexpr long kIters = 1 << 16;
  alignas(64) qgtc::i32 sink[16] = {};
  volatile qgtc::i32 operand = 0x00010002;  // not a compile-time constant
  const double s = qgtc::time_it(
      [&] {
        __m512i acc[kAcc];
        for (__m512i& v : acc) v = _mm512_setzero_si512();
        const __m512i a = _mm512_set1_epi32(operand);
        const __m512i b = _mm512_set1_epi32(operand + 1);
        for (long i = 0; i < kIters; ++i) {
          for (__m512i& v : acc) v = _mm512_dpwssd_epi32(v, a, b);
        }
        __m512i total = acc[0];
        for (int k = 1; k < kAcc; ++k) total = _mm512_add_epi32(total, acc[k]);
        _mm512_store_si512(sink, total);
      },
      min_s);
  return static_cast<double>(kIters) * kAcc * 32 / s;
#else
  (void)min_s;
  return 0.0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qgtc;
  using core::TablePrinter;

  bench::print_banner(
      "Update kernels — tile sweep vs code dot per plane-pair count",
      "the sweep grows with s*t; the code dot is flat in the bit counts");
  bench::JsonReport json("update_kernels", argc, argv);
  set_num_threads(1);

  constexpr i64 kRows = 512;
  const std::vector<std::pair<int, int>> bits = {
      {1, 1}, {2, 2}, {3, 3}, {3, 4}, {4, 4}, {4, 5}, {4, 6}, {5, 6},
      {4, 8}, {6, 6}, {6, 7}, {7, 7}, {8, 7}, {8, 8}};
  const double min_s = bench::quick() ? 0.05 : 0.3;
  const double peak = vpdpwssd_peak_macs(min_s);
  TablePrinter table({"width", "s*t", "s x t", "sweep us", "code dot us",
                      "codes in us", "sweep codes us", "codes out us",
                      "out/sweep", "GMAC/s", "% peak", "fp32 us"});
  bool agree = true;
  Rng rng(2024);
  const auto codes = [&rng](i64 rows, i64 cols, int b) {
    MatrixI32 m(rows, cols);
    for (i64 i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<i32>(rng.next_below(u64{1} << b));
    }
    return m;
  };
  const auto code_matrix = [](AlignedVector<u8>& storage, const MatrixI32& q,
                              int b) {
    storage.assign(
        static_cast<std::size_t>(CodeMatrix::bytes_for(q.rows(), q.cols())), 0);
    const CodeMatrix m = CodeMatrix::over(storage.data(), q.rows(), q.cols(), b);
    for (i64 r = 0; r < q.rows(); ++r) {
      for (i64 c = 0; c < q.cols(); ++c) m.row(r)[c] = static_cast<u8>(q(r, c));
    }
    return m;
  };
  for (const i64 width : {16, 64}) {
    const MatrixF a_f32(kRows, width, 1.0f);
    const MatrixF w_f32(width, width, 0.5f);
    const double fp32 =
        time_it([&] { (void)baselines::gemm_f32(a_f32, w_f32); }, min_s);
    for (const auto [s, t] : bits) {
      const MatrixI32 aq = codes(kRows, width, s);
      const auto a = StackedBitTensor::decompose(aq, s, BitLayout::kRowMajorK,
                                                 PadPolicy::kTile8);
      AlignedVector<u8> a_storage, out_storage, want_storage;
      const CodeMatrix a_codes = code_matrix(a_storage, aq, s);
      const auto w = StackedBitTensor::decompose(codes(width, width, t), t,
                                                 BitLayout::kColMajorK);
      const PackedCodes w_codes = PackedCodes::pack(w);
      const StageWeight w_packed(w, &w_codes);
      const CodeMatrix out =
          code_matrix(out_storage, MatrixI32(kRows, width, 0), 8);
      const CodeMatrix want_codes =
          code_matrix(want_storage, MatrixI32(kRows, width, 0), 8);
      BmmOptions opt;
      opt.zero_tile_jump = true;
      FusedEpilogue epi;
      epi.rshift = s + t;
      const auto update = [&](StageInput in, ReuseMode kernel) {
        return bitmm_fused_bit(in, w, 8, epi, opt, PadPolicy::kTile8,
                               BitLayout::kColMajorK, kernel);
      };
      const auto run = [&](StageInput in, ReuseMode kernel) {
        return time_it([&] { (void)update(in, kernel); }, min_s);
      };
      const double sweep = run(a, ReuseMode::kCrossTile);
      const double dot = run(a, ReuseMode::kCodeDot);
      const double dot_codes = run(a_codes, ReuseMode::kCodeDot);
      const double sweep_out = time_it(
          [&] {
            bitmm_fused_codes(a, w, want_codes, epi, opt, ReuseMode::kCrossTile);
          },
          min_s);
      const double codes_out = time_it(
          [&] {
            bitmm_fused_codes(a_codes, w_packed, out, epi, opt,
                              ReuseMode::kCodeDot);
          },
          min_s);

      const StackedBitTensor want = update(a, ReuseMode::kCrossTile);
      for (const StackedBitTensor& got : {update(a, ReuseMode::kCodeDot),
                                          update(a_codes, ReuseMode::kCodeDot)}) {
        for (int b = 0; b < want.bits(); ++b) {
          const BitMatrix& p = want.plane(b);
          agree &= std::equal(p.data(), p.data() + p.lines() * p.k_words(),
                              got.plane(b).data());
        }
      }
      agree &= std::equal(want_storage.begin(), want_storage.end(),
                          out_storage.begin());

      const double gmacs =
          static_cast<double>(kRows * width * width) / codes_out * 1e-9;
      table.add_row({std::to_string(width), std::to_string(s * t),
                     std::to_string(s) + "x" + std::to_string(t),
                     TablePrinter::fmt(sweep * 1e6, 1),
                     TablePrinter::fmt(dot * 1e6, 1),
                     TablePrinter::fmt(dot_codes * 1e6, 1),
                     TablePrinter::fmt(sweep_out * 1e6, 1),
                     TablePrinter::fmt(codes_out * 1e6, 1),
                     TablePrinter::fmt(codes_out / sweep_out, 2),
                     TablePrinter::fmt(gmacs, 1),
                     peak > 0 ? TablePrinter::fmt(100 * gmacs * 1e9 / peak, 1)
                              : "-",
                     TablePrinter::fmt(fp32 * 1e6, 1)});
      json.add_row({{"bits", std::to_string(s) + "x" + std::to_string(t)}},
                   {{"width", static_cast<double>(width)},
                    {"plane_pairs", static_cast<double>(s * t)},
                    {"sweep_us", sweep * 1e6},
                    {"code_dot_us", dot * 1e6},
                    {"code_dot_codes_in_us", dot_codes * 1e6},
                    {"sweep_codes_out_us", sweep_out * 1e6},
                    {"code_dot_codes_out_us", codes_out * 1e6},
                    {"code_dot_gmacs", gmacs},
                    {"frac_vpdpwssd_peak", peak > 0 ? gmacs * 1e9 / peak : 0.0},
                    {"gemm_f32_us", fp32 * 1e6}});
    }
  }
  table.print(std::cout);
  std::cout << "backend " << tcsim::backend_name(tcsim::default_backend())
            << "; vpdpwssd peak "
            << (peak > 0 ? TablePrinter::fmt(peak * 1e-9, 1) + " GMAC/s"
                         : std::string("not measured (no AVX-512 VNNI)"))
            << "\n";
  json.meta("vpdpwssd_peak_gmacs", peak * 1e-9);
  if (!agree) {
    std::cout << "KERNEL MISMATCH: the sweep and the code dot (planes or "
                 "codes in, planes or codes out) disagree on an output word\n";
    return 1;
  }
  return 0;
}

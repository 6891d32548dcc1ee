// Update-kernel A/B: the tile sweep (s·t 1-bit plane-pair BMMs, Algorithm 1)
// against the code dot (one exact int32 dot product over u8 codes) on one
// hidden-layer update, for each plane-pair count s·t at output widths 16
// and 64. The code dot runs twice: on a planes input, which it unpacks to
// codes per work item, and on a codes input (the CodeMatrix a fused
// producer hands a code-kernel consumer), read in place. The sweep's cost
// grows with s·t and the code dot's does not, so the crossover sets
// kCodeDotMinPlanePairs (DESIGN.md, "Update kernels").
//
// Shape: a 512-row batch of dense s-bit activations (K = width, as in the
// hidden layers of Fig. 7a/7b) times a t-bit width x width weight, fused
// to-bit kColMajorK output (the planes the next aggregation consumes), one
// thread — the engine's compute workers run kernels single-threaded.
// Exits 1 if the three kernels disagree on any output plane word.
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "kernels/anybit_mm.hpp"
#include "parallel/parallel_for.hpp"

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
  TablePrinter table({"width", "s*t", "s x t", "sweep us", "code dot us",
                      "codes in us", "dot/sweep", "codes in/sweep"});
  bool agree = true;
  Rng rng(2024);
  const auto codes = [&rng](i64 rows, i64 cols, int b) {
    MatrixI32 m(rows, cols);
    for (i64 i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<i32>(rng.next_below(u64{1} << b));
    }
    return m;
  };
  for (const i64 width : {16, 64}) {
    for (const auto [s, t] : bits) {
      const MatrixI32 aq = codes(kRows, width, s);
      const auto a = StackedBitTensor::decompose(aq, s, BitLayout::kRowMajorK,
                                                 PadPolicy::kTile8);
      AlignedVector<u8> storage(
          static_cast<std::size_t>(CodeMatrix::bytes_for(kRows, width)));
      const CodeMatrix a_codes =
          CodeMatrix::over(storage.data(), kRows, width, s);
      for (i64 r = 0; r < kRows; ++r) {
        for (i64 c = 0; c < width; ++c) {
          a_codes.row(r)[c] = static_cast<u8>(aq(r, c));
        }
      }
      const auto w = StackedBitTensor::decompose(codes(width, width, t), t,
                                                 BitLayout::kColMajorK);
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
      const StackedBitTensor want = update(a, ReuseMode::kCrossTile);
      for (const StackedBitTensor& got : {update(a, ReuseMode::kCodeDot),
                                          update(a_codes, ReuseMode::kCodeDot)}) {
        for (int b = 0; b < want.bits(); ++b) {
          const BitMatrix& p = want.plane(b);
          agree &= std::equal(p.data(), p.data() + p.lines() * p.k_words(),
                              got.plane(b).data());
        }
      }
      table.add_row({std::to_string(width), std::to_string(s * t),
                     std::to_string(s) + "x" + std::to_string(t),
                     TablePrinter::fmt(sweep * 1e6, 1),
                     TablePrinter::fmt(dot * 1e6, 1),
                     TablePrinter::fmt(dot_codes * 1e6, 1),
                     TablePrinter::fmt(dot / sweep, 2),
                     TablePrinter::fmt(dot_codes / sweep, 2)});
      json.add_row({{"bits", std::to_string(s) + "x" + std::to_string(t)}},
                   {{"width", static_cast<double>(width)},
                    {"plane_pairs", static_cast<double>(s * t)},
                    {"sweep_us", sweep * 1e6},
                    {"code_dot_us", dot * 1e6},
                    {"code_dot_codes_in_us", dot_codes * 1e6}});
    }
  }
  table.print(std::cout);
  std::cout << "kCodeDotMinPlanePairs = " << kCodeDotMinPlanePairs
            << " (backend " << tcsim::backend_name(tcsim::default_backend())
            << ")\n";
  if (!agree) {
    std::cout << "KERNEL MISMATCH: the sweep and the code dot (planes or "
                 "codes in) disagree on an output plane word\n";
    return 1;
  }
  return 0;
}

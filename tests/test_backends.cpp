// Concurrency & dispatch tests for the ExecutionContext refactor: every
// substrate backend must produce bit-identical results vs kScalar on
// randomized (s, t)-bit MMs, engine stats and counter totals must be
// invariant to inter_batch_threads, and the fixed parallel_for_dynamic must
// visit each iteration exactly once for any chunk size.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <string>

#include "api/bit_tensor_api.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "kernels/anybit_mm.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc {
namespace {

MatrixI32 random_codes(Rng& rng, i64 rows, i64 cols, int bits) {
  MatrixI32 m(rows, cols);
  const u64 range = u64{1} << bits;
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(range));
  }
  return m;
}

MatrixI32 random_binary(Rng& rng, i64 rows, i64 cols, float density) {
  MatrixI32 m(rows, cols);
  for (i64 i = 0; i < m.size(); ++i) m.data()[i] = rng.next_bool(density) ? 1 : 0;
  return m;
}

TEST(Backends, RegistryNamesAndParsing) {
  for (const auto k : tcsim::all_backends()) {
    EXPECT_EQ(tcsim::backend(k).kind(), k);
    EXPECT_NE(std::string(tcsim::backend_name(k)), "");
  }
  EXPECT_EQ(tcsim::parse_backend("scalar"), tcsim::BackendKind::kScalar);
  EXPECT_EQ(tcsim::parse_backend("simd"), tcsim::BackendKind::kSimd);
  EXPECT_EQ(tcsim::parse_backend("blocked"), tcsim::BackendKind::kBlocked);
  EXPECT_THROW((void)tcsim::parse_backend("cuda"), std::invalid_argument);
}

TEST(Backends, PanelWidths) {
  EXPECT_EQ(tcsim::backend(tcsim::BackendKind::kScalar).panel_width(), 1);
  EXPECT_EQ(tcsim::backend(tcsim::BackendKind::kSimd).panel_width(), 1);
  EXPECT_GT(tcsim::backend(tcsim::BackendKind::kBlocked).panel_width(), 1);
}

/// Property: every backend's bitmm_to_int / fused / aggregate results are
/// bit-identical to kScalar's on randomized shapes, bitwidths and densities.
class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, RandomAnyBitMms) {
  Rng rng(static_cast<u64>(GetParam()) * 9091 + 7);
  const i64 m = rng.next_in(1, 70);
  const i64 k = rng.next_in(1, 300);
  const i64 n = rng.next_in(1, 48);
  const int s = static_cast<int>(rng.next_in(1, 5));
  const int t = static_cast<int>(rng.next_in(1, 5));
  const MatrixI32 a = random_codes(rng, m, k, s);
  const MatrixI32 b = random_codes(rng, k, n, t);
  const auto pa = StackedBitTensor::decompose(a, s, BitLayout::kRowMajorK);
  const auto pb = StackedBitTensor::decompose(b, t, BitLayout::kColMajorK);

  const tcsim::ExecutionContext scalar(tcsim::BackendKind::kScalar);
  BmmOptions sopt;
  sopt.ctx = &scalar;
  const MatrixI32 want = bitmm_to_int(pa, pb, sopt);
  EXPECT_EQ(want, matmul_reference(a, b));

  for (const auto kind :
       {tcsim::BackendKind::kSimd, tcsim::BackendKind::kBlocked}) {
    const tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    EXPECT_EQ(bitmm_to_int(pa, pb, opt), want) << tcsim::backend_name(kind);
    EXPECT_EQ(bitmm_fused_int(pa, pb, {}, opt), want)
        << tcsim::backend_name(kind);

    opt.zero_tile_jump = true;
    EXPECT_EQ(bitmm_to_int(pa, pb, opt), want)
        << tcsim::backend_name(kind) << " with zero-tile jumping";
  }
}

TEST_P(BackendEquivalence, RandomAggregations) {
  Rng rng(static_cast<u64>(GetParam()) * 4243 + 1);
  const i64 nodes = rng.next_in(4, 80);
  const i64 dim = rng.next_in(1, 40);
  const int s = static_cast<int>(rng.next_in(1, 6));
  const MatrixI32 adj = random_binary(rng, nodes, nodes, 0.2f);
  const MatrixI32 x = random_codes(rng, nodes, dim, s);
  const BitMatrix pa = pack_nonzero(adj, BitLayout::kRowMajorK);
  const auto px = StackedBitTensor::decompose(x, s, BitLayout::kColMajorK);

  const tcsim::ExecutionContext scalar(tcsim::BackendKind::kScalar);
  BmmOptions sopt;
  sopt.ctx = &scalar;
  sopt.zero_tile_jump = true;
  const MatrixI32 want = aggregate_1bit(pa, px, ReuseMode::kCrossTile, sopt);
  EXPECT_EQ(want, matmul_reference(adj, x));

  for (const auto kind :
       {tcsim::BackendKind::kSimd, tcsim::BackendKind::kBlocked}) {
    const tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    opt.zero_tile_jump = true;
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossTile, opt), want);
    EXPECT_EQ(aggregate_1bit(pa, px, ReuseMode::kCrossBit, opt), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BackendEquivalence, ::testing::Range(0, 10));

TEST(Backends, XorCombineMatchesScalarAcrossBackends) {
  Rng rng(77);
  const MatrixI32 a = random_binary(rng, 24, 200, 0.5f);
  const MatrixI32 b = random_binary(rng, 200, 16, 0.5f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);

  MatrixI32 results[3];
  int i = 0;
  for (const auto kind : tcsim::all_backends()) {
    const tcsim::ExecutionContext ctx(kind);
    BmmOptions opt;
    opt.ctx = &ctx;
    opt.op = tcsim::BmmaOp::kXor;
    results[i++] = bmm(pa, pb, opt);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Backends, PrivateCountersIsolatedFromGlobal) {
  Rng rng(5);
  const MatrixI32 a = random_binary(rng, 16, 128, 0.5f);
  const MatrixI32 b = random_binary(rng, 128, 8, 0.5f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);

  tcsim::ExecutionContext ctx(tcsim::BackendKind::kBlocked,
                              /*private_counters=*/true);
  BmmOptions opt;
  opt.ctx = &ctx;
  tcsim::reset_counters();
  (void)bmm(pa, pb, opt);
  EXPECT_EQ(tcsim::snapshot_counters().bmma_ops, 0u)
      << "private-context work leaked into the global registry";
  const tcsim::Counters c = ctx.counters();
  EXPECT_EQ(c.bmma_ops, 2u);  // 2 row tiles x 1 col tile x 1 K tile
  ctx.reset_counters();
  EXPECT_EQ(ctx.counters().bmma_ops, 0u);
}

TEST(Backends, ApiCtxOptionRoutesCounters) {
  Rng rng(6);
  MatrixF a(12, 100), b(100, 8);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 4, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 4, api::BitTensor::Side::kRight);

  tcsim::ExecutionContext ctx(tcsim::BackendKind::kSimd);
  BmmOptions pinned;
  pinned.ctx = &ctx;
  const MatrixI32 got = api::bitMM2Int(ta, tb, pinned);
  EXPECT_GT(ctx.counters().bmma_ops, 0u);
  EXPECT_EQ(got, api::bitMM2Int(ta, tb));
}

TEST(Backends, EngineStatsInvariantToInterBatchThreads) {
  DatasetSpec spec{"backend-test", 1200, 8000, 16, 4, 16, 123};
  const Dataset ds = generate_dataset(spec);
  core::EngineConfig cfg;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 3;
  cfg.model.weight_bits = 3;
  cfg.num_partitions = 12;
  cfg.batch_size = 2;  // 6 batches

  core::QgtcEngine engine(ds, cfg);
  engine.set_execution(tcsim::BackendKind::kBlocked, 1);
  const core::EngineStats serial = engine.run_quantized(1);
  for (const int threads : {2, 3, 6}) {
    engine.set_execution(tcsim::BackendKind::kBlocked, threads);
    const core::EngineStats par = engine.run_quantized(1);
    EXPECT_EQ(par.bmma_ops, serial.bmma_ops) << threads << " threads";
    EXPECT_EQ(par.tiles_jumped, serial.tiles_jumped) << threads << " threads";
    EXPECT_EQ(par.nodes, serial.nodes) << threads << " threads";
    EXPECT_EQ(par.batches, serial.batches) << threads << " threads";
  }
}

TEST(Backends, EngineOutputsIdenticalAcrossBackendsAndThreads) {
  DatasetSpec spec{"backend-test2", 800, 5000, 16, 4, 16, 321};
  const Dataset ds = generate_dataset(spec);
  core::EngineConfig cfg;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 4;
  cfg.model.weight_bits = 4;
  cfg.num_partitions = 8;
  cfg.batch_size = 2;
  const core::QgtcEngine engine(ds, cfg);

  // Per-batch logits must not depend on the backend or on which context ran
  // the pass — forward passes are pure given (model, batch).
  const tcsim::ExecutionContext scalar(tcsim::BackendKind::kScalar);
  for (const auto& bdp : engine.batch_data()) {
    const auto& bd = *bdp;
    const MatrixI32 want = engine.model().forward_prepared(
        bd.adj, &bd.tile_map, bd.x_planes, nullptr, &scalar);
    for (const auto kind :
         {tcsim::BackendKind::kSimd, tcsim::BackendKind::kBlocked}) {
      const tcsim::ExecutionContext ctx(kind);
      EXPECT_EQ(engine.model().forward_prepared(bd.adj, &bd.tile_map,
                                                bd.x_planes, nullptr, &ctx),
                want)
          << tcsim::backend_name(kind);
    }
  }
}

TEST(ParallelFor, DynamicVisitsEachIterationOnceForAnyChunk) {
  for (const i64 chunk : {1, 3, 7, 16, 50, 1000}) {
    const i64 n = 257;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_for_dynamic(0, n, chunk, [&](i64 i) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, n);
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (i64 i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " chunk " << chunk;
    }
  }
}

TEST(ParallelFor, DynamicHandlesEmptyAndNegativeRanges) {
  int calls = 0;
  parallel_for_dynamic(5, 5, 4, [&](i64) { ++calls; });
  parallel_for_dynamic(5, 3, 4, [&](i64) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, WorkersCoverRangeWithBoundedWorkerIds) {
  const i64 n = 64;
  const int threads = 3;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<int> bad_worker{0};
  parallel_for_workers(0, n, threads, [&](i64 i, int w) {
    if (w < 0 || w >= threads) bad_worker.fetch_add(1);
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  EXPECT_EQ(bad_worker.load(), 0);
  for (i64 i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
  }
}

// ---- code GEMM (the code dot's register-blocked hook) ----

/// Row counts that are not multiples of 4 or 8, and the output widths the
/// hook's panel passes split differently (1, 3, 4 and 5 panels).
constexpr i64 kGemmRows[] = {13, 45, 3, 70, 29, 22};
constexpr i64 kGemmCols[] = {2, 8, 16, 40, 64, 72};

/// `q` (codes below 2^bits) as a code matrix over `storage`.
CodeMatrix to_codes(const MatrixI32& q, int bits, AlignedVector<u8>& storage) {
  storage.assign(
      static_cast<std::size_t>(CodeMatrix::bytes_for(q.rows(), q.cols())), 0);
  const CodeMatrix c = CodeMatrix::over(storage.data(), q.rows(), q.cols(), bits);
  for (i64 r = 0; r < q.rows(); ++r) {
    for (i64 j = 0; j < q.cols(); ++j) c.row(r)[j] = static_cast<u8>(q(r, j));
  }
  return c;
}

TEST(CodeGemm, EveryBackendMatchesTheScalarBaseAndTheCodes) {
  Rng rng(1717);
  constexpr i64 kK = 384;  // three 128-code K tiles
  for (const i64 n : kGemmCols) {
    const int t = static_cast<int>(rng.next_in(1, 8));
    const MatrixI32 wq = random_codes(rng, kK, n, t);
    const auto w = StackedBitTensor::decompose(wq, t, BitLayout::kColMajorK,
                                               PadPolicy::kTile8);
    const PackedCodes packed = PackedCodes::pack(w);
    const tcsim::CodePanels panels = packed.view();
    ASSERT_EQ(panels.panels, ceil_div(n, tcsim::kCodePanelCols));
    const i64 width = panels.panels * tcsim::kCodePanelCols;
    const i64 stride = width + 3;  // lanes past the panels stay untouched
    // Runs split by a jumped middle tile, and a run clipped mid-tile.
    const std::vector<tcsim::KRun> runs = {{0, 64}, {128, 176}};
    for (i64 rows = 1; rows <= kTileM; ++rows) {
      const int s = static_cast<int>(rng.next_in(1, 8));
      std::vector<i16> a(static_cast<std::size_t>(kTileM * kK));
      for (i16& v : a) v = static_cast<i16>(rng.next_below(u64{1} << s));
      // The exact products over the runs, straight from the codes.
      std::vector<i32> want(static_cast<std::size_t>(kTileM * stride), -7);
      for (i64 i = 0; i < rows; ++i) {
        for (i64 j = 0; j < width; ++j) {
          i32 sum = 0;
          for (const tcsim::KRun& r : runs) {
            for (i64 k = 2 * r.begin; k < 2 * r.end; ++k) {
              sum += j < n ? a[static_cast<std::size_t>(i * kK + k)] * wq(k, j) : 0;
            }
          }
          want[static_cast<std::size_t>(i * stride + j)] = sum;
        }
      }
      for (const tcsim::BackendKind kind : tcsim::all_backends()) {
        const tcsim::SubstrateBackend& be = tcsim::backend(kind);
        std::vector<i32> got(want.size(), -7), base(want.size(), -7);
        be.code_gemm_rows(got.data(), stride, a.data(), kK, rows, panels,
                          runs.data(), static_cast<i64>(runs.size()));
        be.SubstrateBackend::code_gemm_rows(base.data(), stride, a.data(), kK,
                                            rows, panels, runs.data(),
                                            static_cast<i64>(runs.size()));
        EXPECT_EQ(got, want) << be.name() << " n=" << n << " rows=" << rows;
        EXPECT_EQ(base, want) << "base n=" << n << " rows=" << rows;
      }
    }
  }
}

/// The code dot against the tile sweep, through every entry point and
/// output form, on every backend: A has all-zero 8x128 blocks, so its K runs
/// are split by jumped tiles; operands of 1-8 bits; BN on and off; all four
/// activations. Outputs and tiles_jumped equal the sweep's, and code_macs
/// is the same on every backend.
TEST(CodeGemm, CodeDotMatchesTheTileSweepInEveryOutputForm) {
  using tcsim::Activation;
  Rng rng(2718);
  constexpr i64 kK = 300;
  for (std::size_t c = 0; c < std::size(kGemmCols); ++c) {
    const i64 m = kGemmRows[c], n = kGemmCols[c];
    const int s = static_cast<int>(rng.next_in(1, 8));
    const int t = 9 - s;
    MatrixI32 aq = random_codes(rng, m, kK, s);
    for (i64 r = 0; r < m; ++r) {
      for (i64 k = 0; k < kK; ++k) {
        // Zero the middle K tile of every other row block, and the first
        // K tile of every third.
        const i64 tm = r / kTileM, tk = k / kTileK;
        if ((tk == 1 && tm % 2 == 0) || (tk == 0 && tm % 3 == 1)) aq(r, k) = 0;
      }
    }
    const MatrixI32 wq = random_codes(rng, kK, n, t);
    const auto a = StackedBitTensor::decompose(aq, s, BitLayout::kRowMajorK,
                                               PadPolicy::kTile8);
    AlignedVector<u8> a_storage;
    const CodeMatrix a_codes = to_codes(aq, s, a_storage);
    const auto w = StackedBitTensor::decompose(wq, t, BitLayout::kColMajorK,
                                               PadPolicy::kTile8);
    const PackedCodes w_codes = PackedCodes::pack(w);
    const int out_bits = static_cast<int>(rng.next_in(1, 8));
    for (const bool bn : {false, true}) {
      for (const Activation act : {Activation::kIdentity, Activation::kRelu,
                                   Activation::kRelu6, Activation::kHardswish}) {
        FusedEpilogue epi;
        epi.act = act;
        epi.rshift = s + t + 1;
        epi.use_bn = bn;
        for (i64 j = 0; bn && j < n; ++j) {
          epi.bn_scale.push_back(rng.next_float(0.5f, 1.5f));
          epi.bn_bias.push_back(rng.next_float(-200.0f, 50.0f));
        }
        const std::string tag = "m=" + std::to_string(m) + " n=" +
                                std::to_string(n) + " s=" + std::to_string(s) +
                                " bn=" + std::to_string(bn) + " act=" +
                                tcsim::activation_name(act);
        // Every output form as one vector of words, from `kernel` on
        // `kind`; codes in and packed W for the code dot on odd activations.
        const auto outputs = [&](tcsim::BackendKind kind, ReuseMode kernel,
                                 tcsim::Counters& counters) {
          const tcsim::ExecutionContext ctx(kind);
          BmmOptions opt;
          opt.zero_tile_jump = true;
          opt.ctx = &ctx;
          const bool dot = kernel == ReuseMode::kCodeDot;
          const bool alt = dot && static_cast<int>(act) % 2 == 1;
          const StageInput in = alt ? StageInput(a_codes) : StageInput(a);
          const StageWeight wt = alt ? StageWeight(w, &w_codes) : StageWeight(w);
          std::vector<u32> words;
          const MatrixI32 ints = bitmm_fused_int(in, wt, epi, opt, kernel);
          words.insert(words.end(), ints.data(), ints.data() + ints.size());
          for (const BitLayout layout :
               {BitLayout::kRowMajorK, BitLayout::kColMajorK}) {
            const StackedBitTensor p = bitmm_fused_bit(
                in, wt, out_bits, epi, opt, PadPolicy::kTile8, layout, kernel);
            for (int b = 0; b < p.bits(); ++b) {
              const BitMatrix& pb = p.plane(b);
              words.insert(words.end(), pb.data(),
                           pb.data() + pb.lines() * pb.k_words());
            }
          }
          AlignedVector<u8> out_storage(
              static_cast<std::size_t>(CodeMatrix::bytes_for(m, n)), u8{0xA5});
          bitmm_fused_codes(in, wt,
                            CodeMatrix::over(out_storage.data(), m, n, out_bits),
                            epi, opt, kernel);
          words.insert(words.end(), out_storage.begin(), out_storage.end());
          counters = ctx.counters();
          return words;
        };
        tcsim::Counters sweep_c, base_c;
        const auto want = outputs(tcsim::BackendKind::kScalar,
                                  ReuseMode::kCrossTile, sweep_c);
        (void)outputs(tcsim::BackendKind::kScalar, ReuseMode::kCodeDot, base_c);
        EXPECT_GT(sweep_c.tiles_jumped, 0u) << tag;
        for (const tcsim::BackendKind kind : tcsim::all_backends()) {
          tcsim::Counters dot_c;
          EXPECT_EQ(outputs(kind, ReuseMode::kCodeDot, dot_c), want)
              << tag << " on " << tcsim::backend_name(kind);
          EXPECT_EQ(dot_c.tiles_jumped, sweep_c.tiles_jumped) << tag;
          EXPECT_EQ(dot_c.code_macs, base_c.code_macs) << tag;
          EXPECT_GT(dot_c.code_macs, 0u) << tag;
          EXPECT_EQ(dot_c.bmma_ops, 0u) << tag;
        }
      }
    }
  }
}

TEST(ExpandBits, EveryBackendMatchesTheScalarBase) {
  Rng rng(4242);
  std::vector<u64> words = {0, 1, u64{1} << 63, 0x8000000000000001ull,
                            ~u64{0}};
  // 16 and 17 set bits straddle the hook's 16-id stores.
  for (const int count : {16, 17, 31, 32, 33, 48, 49}) {
    u64 w = 0;
    while (std::popcount(w) < count) w |= u64{1} << rng.next_below(64);
    words.push_back(w);
  }
  for (int i = 0; i < 40; ++i) words.push_back(rng.next_u64());
  for (const u64 w : words) {
    for (const i32 base : {0, 64, 1 << 20}) {
      std::vector<i32> want;
      for (int b = 0; b < 64; ++b) {
        if ((w >> b) & 1) want.push_back(base + b);
      }
      for (const tcsim::BackendKind kind : tcsim::all_backends()) {
        const tcsim::SubstrateBackend& be = tcsim::backend(kind);
        // Sentinels past the count must survive: the hook writes exactly
        // count ids.
        std::vector<i32> got(65, -1), ref(65, -1);
        const i64 n = be.expand_bits(w, base, got.data());
        const i64 n_ref = be.SubstrateBackend::expand_bits(w, base, ref.data());
        ASSERT_EQ(n, std::popcount(w)) << be.name();
        ASSERT_EQ(n_ref, n);
        EXPECT_EQ(std::vector<i32>(got.begin(), got.begin() + n), want)
            << be.name() << " word " << w;
        EXPECT_EQ(got, ref) << be.name() << " word " << w;
        EXPECT_EQ(got[static_cast<std::size_t>(n)], -1) << be.name();
      }
    }
  }
}

TEST(UnpackCodes, EveryBackendMatchesTheScalarBaseAndTheCodes) {
  Rng rng(777);
  // Row counts below, at and past the vector hook's 64-row steps.
  for (const i64 rows : {1, 13, 64, 70, 130, 200}) {
    for (const i64 width : {1, 7, 8, 9, 16, 17, 64, 65, 127, 130}) {
      const int bits = static_cast<int>(rng.next_in(1, 8));
      const MatrixI32 q = random_codes(rng, rows, width, bits);
      const auto planes = StackedBitTensor::decompose(
          q, bits, BitLayout::kColMajorK, PadPolicy::kTile8);
      const u8* lines[8];
      for (int b = 0; b < bits; ++b) {
        lines[b] = reinterpret_cast<const u8*>(planes.plane(b).data());
      }
      const i64 line_bytes =
          planes.plane(0).k_words() * static_cast<i64>(sizeof(u32));
      const i64 rows8 = pad8(rows), cols8 = pad8(width);
      const i64 stride = cols8 + 5;  // bytes past the columns stay untouched
      std::vector<u8> want(static_cast<std::size_t>(rows8 * stride), 0xAB);
      for (i64 r = 0; r < rows8; ++r) {
        for (i64 j = 0; j < cols8; ++j) {
          want[static_cast<std::size_t>(r * stride + j)] =
              r < rows && j < width ? static_cast<u8>(q(r, j)) : 0;
        }
      }
      for (const tcsim::BackendKind kind : tcsim::all_backends()) {
        const tcsim::SubstrateBackend& be = tcsim::backend(kind);
        std::vector<u8> got(want.size(), 0xAB), base(want.size(), 0xAB);
        be.unpack_codes(got.data(), stride, lines, bits, line_bytes, rows8,
                        cols8);
        be.SubstrateBackend::unpack_codes(base.data(), stride, lines, bits,
                                          line_bytes, rows8, cols8);
        EXPECT_EQ(got, want) << be.name() << " rows=" << rows
                             << " width=" << width << " bits=" << bits;
        EXPECT_EQ(base, want) << "base rows=" << rows << " width=" << width;
      }
    }
  }
}

/// An n x n adjacency with every row shape the expansion meets: empty rows,
/// an all-zero row block, a full row (64-bit words of all ones), rows with
/// 16 and 17 bits in one word, and sparse random rows.
MatrixI32 expansion_adjacency(Rng& rng, i64 n) {
  MatrixI32 m(n, n, 0);
  for (i64 r = 0; r < n; ++r) {
    if (r % 5 == 3 || (r >= 8 && r < 16)) continue;  // empty; zero block 1
    if (r == 2) {
      for (i64 c = 0; c < n; ++c) m(r, c) = 1;
      continue;
    }
    const i64 dense = r == 4 ? 16 : r == 6 ? 17 : 0;
    for (i64 c = 0; c < std::min(dense, n); ++c) m(r, c) = 1;
    for (int e = 0; e < 4; ++e) m(r, static_cast<i64>(rng.next_below(static_cast<u64>(n)))) = 1;
  }
  return m;
}

TEST(NeighbourList, MatchesTheAdjacencyOnBothSourcesAndEveryBackend) {
  Rng rng(31337);
  for (const i64 n : {1, 13, 70, 130, 300}) {
    const MatrixI32 adj = expansion_adjacency(rng, n);
    const BitMatrix dense = pack_nonzero(adj, BitLayout::kRowMajorK);
    const TileSparseBitMatrix sparse = TileSparseBitMatrix::from_bit_matrix(dense);
    const TileMap map = build_tile_map(dense);
    std::vector<i64> want_offsets = {0};
    std::vector<i32> want_ids;
    for (i64 r = 0; r < n; ++r) {
      for (i64 c = 0; c < n; ++c) {
        if (adj(r, c) != 0) want_ids.push_back(static_cast<i32>(c));
      }
      want_offsets.push_back(static_cast<i64>(want_ids.size()));
    }
    for (const tcsim::BackendKind kind : tcsim::all_backends()) {
      const tcsim::ExecutionContext ctx(kind);
      BmmOptions opt;
      opt.ctx = &ctx;
      opt.zero_tile_jump = true;
      BmmOptions mapped = opt;
      mapped.tile_map = &map;
      // One expansion at a time: a list is valid until the thread expands
      // again.
      const auto check = [&](const NeighbourList& nl, const void* adj_ptr,
                             i64 tiles_k, const std::string& tag) {
        ASSERT_EQ(nl.rows, n) << tag;
        EXPECT_EQ(nl.source, adj_ptr) << tag;
        EXPECT_EQ(std::vector<i64>(nl.offsets, nl.offsets + n + 1), want_offsets)
            << tag;
        EXPECT_EQ(std::vector<i32>(nl.ids, nl.ids + nl.edges()), want_ids) << tag;
        ASSERT_EQ(nl.blocks, sparse.tiles_m()) << tag;
        for (i64 tm = 0; tm < nl.blocks; ++tm) {
          EXPECT_EQ(nl.jumped[tm], tiles_k - sparse.row_nnz(tm))
              << tag << " block " << tm;
        }
      };
      const std::string be = tcsim::backend_name(kind);
      check(expand_neighbours(sparse, opt), &sparse, sparse.tiles_k(),
            be + " tile-CSR n=" + std::to_string(n));
      check(expand_neighbours(dense, mapped), &dense, sparse.tiles_k(),
            be + " dense+map n=" + std::to_string(n));
      check(expand_neighbours(dense, opt), &dense, sparse.tiles_k(),
            be + " dense n=" + std::to_string(n));
    }
  }
}

TEST(NeighbourList, SharedListMatchesPerCallExpansionAndRejectsOtherAdjacency) {
  Rng rng(99);
  const i64 n = 150;
  const MatrixI32 adj = expansion_adjacency(rng, n);
  const MatrixI32 other = random_binary(rng, n, n, 0.05f);
  const TileSparseBitMatrix a =
      TileSparseBitMatrix::from_bit_matrix(pack_nonzero(adj, BitLayout::kRowMajorK));
  const TileSparseBitMatrix b = TileSparseBitMatrix::from_bit_matrix(
      pack_nonzero(other, BitLayout::kRowMajorK));
  const MatrixI32 xq = random_codes(rng, n, 24, 4);
  const auto x = StackedBitTensor::decompose(xq, 4, BitLayout::kColMajorK,
                                             PadPolicy::kTile8);
  FusedEpilogue epi;
  epi.rshift = 2;
  for (const tcsim::BackendKind kind : tcsim::all_backends()) {
    const tcsim::ExecutionContext per_call_ctx(kind), shared_ctx(kind);
    BmmOptions per_call;
    per_call.ctx = &per_call_ctx;
    per_call.zero_tile_jump = true;
    const MatrixI32 want = aggregate_1bit(a, x, ReuseMode::kRowGather, per_call);
    const auto want_bits =
        aggregate_fused_bit(a, x, 4, epi, per_call, PadPolicy::kTile8,
                            ReuseMode::kRowGather);

    BmmOptions shared = per_call;
    shared.ctx = &shared_ctx;
    const NeighbourList nl = expand_neighbours(a, shared);
    shared.neighbours = &nl;
    EXPECT_EQ(aggregate_1bit(a, x, ReuseMode::kRowGather, shared), want)
        << tcsim::backend_name(kind);
    EXPECT_EQ(aggregate_fused_bit(a, x, 4, epi, shared, PadPolicy::kTile8,
                                  ReuseMode::kRowGather)
                  .compose(),
              want_bits.compose())
        << tcsim::backend_name(kind);
    const tcsim::Counters pc = per_call_ctx.counters();
    const tcsim::Counters sc = shared_ctx.counters();
    EXPECT_EQ(sc.tiles_jumped, pc.tiles_jumped);
    EXPECT_EQ(sc.gather_edges, pc.gather_edges);
    EXPECT_EQ(sc.gather_edges, 2 * static_cast<u64>(nl.edges()));
    EXPECT_EQ(sc.bmma_ops, 0u);

    // A list of another adjacency (same shape) must not be read.
    EXPECT_THROW((void)aggregate_1bit(b, x, ReuseMode::kRowGather, shared),
                 std::invalid_argument);
  }
}

TEST(Workspace, ArenaReusesStorageAcrossCalls) {
  Rng rng(9);
  const MatrixI32 a = random_binary(rng, 40, 256, 0.4f);
  const MatrixI32 b = random_binary(rng, 256, 24, 0.4f);
  const BitMatrix pa = pack_nonzero(a, BitLayout::kRowMajorK);
  const BitMatrix pb = pack_nonzero(b, BitLayout::kColMajorK);
  const MatrixI32 first = bmm(pa, pb);
  const std::size_t after_first = tcsim::thread_workspace().footprint_bytes();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(bmm(pa, pb), first);
  EXPECT_EQ(tcsim::thread_workspace().footprint_bytes(), after_first)
      << "same-shaped kernel calls should not grow the arena";
}

}  // namespace
}  // namespace qgtc

// 3D-stacked bit compression tests: decompose/compose round-trips across
// bitwidths and layouts; byte accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "bittensor/stacked.hpp"
#include "common/rng.hpp"

namespace qgtc {
namespace {

TEST(Stacked, PlaneCountMatchesBits) {
  MatrixI32 m(4, 4, 3);
  const auto t = StackedBitTensor::decompose(m, 5, BitLayout::kRowMajorK);
  EXPECT_EQ(t.bits(), 5);
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 4);
}

TEST(Stacked, PlanesHoldCorrectBits) {
  MatrixI32 m(1, 2);
  m(0, 0) = 0b110;  // 6
  m(0, 1) = 0b011;  // 3
  const auto t = StackedBitTensor::decompose(m, 3, BitLayout::kRowMajorK);
  EXPECT_FALSE(t.plane(0).get(0, 0));
  EXPECT_TRUE(t.plane(1).get(0, 0));
  EXPECT_TRUE(t.plane(2).get(0, 0));
  EXPECT_TRUE(t.plane(0).get(0, 1));
  EXPECT_TRUE(t.plane(1).get(0, 1));
  EXPECT_FALSE(t.plane(2).get(0, 1));
}

TEST(Stacked, BytesSumPlanes) {
  MatrixI32 m(10, 200, 1);
  const auto t = StackedBitTensor::decompose(m, 3, BitLayout::kRowMajorK,
                                             PadPolicy::kTile8);
  EXPECT_EQ(t.bytes(), 3 * t.plane(0).bytes());
  // 16 padded rows x 8 words x 4 bytes per plane.
  EXPECT_EQ(t.plane(0).bytes(), 16 * 8 * 4);
}

TEST(Stacked, InvalidBitsThrow) {
  MatrixI32 m(2, 2, 0);
  EXPECT_THROW(StackedBitTensor::decompose(m, 0, BitLayout::kRowMajorK),
               std::invalid_argument);
  EXPECT_THROW(StackedBitTensor::decompose(m, 32, BitLayout::kRowMajorK),
               std::invalid_argument);
}

class StackedRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, BitLayout>> {};

TEST_P(StackedRoundTrip, DecomposeCompose) {
  const auto [bits, layout] = GetParam();
  Rng rng(static_cast<u64>(bits) * 31 + 7);
  MatrixI32 m(13, 37);
  const i32 qmax = static_cast<i32>((1u << bits) - 1);
  for (i64 i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<i32>(rng.next_below(static_cast<u64>(qmax) + 1));
  }
  const auto t = StackedBitTensor::decompose(m, bits, layout);
  EXPECT_EQ(t.compose(), m);
}

// The one-pass decomposition against per-plane packing, plane for plane and
// word for word (padding included): odd shapes, both pad policies, and any
// int32 — negative values and values of 2^bits or more included.
TEST_P(StackedRoundTrip, MatchesPerPlanePacking) {
  const auto [bits, layout] = GetParam();
  Rng rng(static_cast<u64>(bits) * 131 + 17);
  for (const auto [rows, cols] :
       {std::pair<i64, i64>{1, 1}, {13, 37}, {33, 129}, {70, 9}}) {
    MatrixI32 m(rows, cols);
    for (i64 i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<i32>(static_cast<u32>(rng.next_u64()));
    }
    for (const PadPolicy pad : {PadPolicy::kTile8, PadPolicy::kOperand128}) {
      const auto t = StackedBitTensor::decompose(m, bits, layout, pad);
      ASSERT_EQ(t.bits(), bits);
      for (int b = 0; b < bits; ++b) {
        const BitMatrix want = pack_bit_plane(m, b, layout, pad);
        const BitMatrix& got = t.plane(b);
        ASSERT_EQ(got.bytes(), want.bytes());
        EXPECT_TRUE(std::equal(got.data(), got.data() + got.bytes() / 4,
                               want.data()))
            << rows << "x" << cols << " plane " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndLayouts, StackedRoundTrip,
    ::testing::Combine(::testing::Range(1, 32),
                       ::testing::Values(BitLayout::kRowMajorK,
                                         BitLayout::kColMajorK)));

}  // namespace
}  // namespace qgtc

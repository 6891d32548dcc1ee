#include "bittensor/stacked.hpp"

#include <algorithm>

#include "parallel/parallel_for.hpp"

namespace qgtc {

StackedBitTensor StackedBitTensor::decompose(const MatrixI32& q, int bits,
                                             BitLayout layout,
                                             PadPolicy non_k_pad) {
  StackedBitTensor t = zeros(q.rows(), q.cols(), bits, layout, non_k_pad);
  // One pass over the lines (rows for kRowMajorK, columns for kColMajorK).
  // Per 8 values along K, each byte slice s of the values narrows into a u64
  // (byte i = bits 8s..8s+7 of value i); the 8x8 bit transpose then leaves
  // plane 8s+b's 8 bits in byte b. Four such bytes make one plane word, which
  // is assigned whole. Exact for every int32, as pack_bit_plane is.
  const bool row_k = layout == BitLayout::kRowMajorK;
  const i64 lines = row_k ? q.rows() : q.cols();
  const i64 k_len = row_k ? q.cols() : q.rows();
  const i64 line_step = row_k ? q.cols() : 1;
  const i64 k_step = row_k ? 1 : q.cols();
  const i64 k_words = t.plane(0).k_words();
  const int slices = (bits + 7) / 8;
  parallel_for(0, lines, [&](i64 l) {
    const i32* src = q.data() + l * line_step;
    for (i64 w = 0; w * kWordBits < k_len; ++w) {
      u32 words[32] = {};
      for (int g = 0; g < kWordBits / 8; ++g) {
        const i64 k0 = w * kWordBits + g * 8;
        const i64 kn = std::min<i64>(8, k_len - k0);
        if (kn <= 0) break;
        u32 v[8] = {};
        for (i64 i = 0; i < kn; ++i) {
          v[i] = static_cast<u32>(src[(k0 + i) * k_step]);
        }
        for (int s = 0; s < slices; ++s) {
          u64 x = 0;
          for (int i = 0; i < 8; ++i) {
            x |= static_cast<u64>((v[i] >> (8 * s)) & 0xffu) << (8 * i);
          }
          x = transpose8x8_bits(x);
          for (int b = 0; b < std::min(8, bits - 8 * s); ++b) {
            const u32 byte = static_cast<u32>((x >> (8 * b)) & 0xffu);
            words[8 * s + b] |= byte << (8 * g);
          }
        }
      }
      for (int b = 0; b < bits; ++b) {
        t.plane(b).data()[l * k_words + w] = words[b];
      }
    }
  });
  return t;
}

StackedBitTensor StackedBitTensor::zeros(i64 rows, i64 cols, int bits,
                                         BitLayout layout,
                                         PadPolicy non_k_pad) {
  QGTC_CHECK(bits >= 1 && bits <= 31, "stacked bit count must be in [1,31]");
  StackedBitTensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.layout_ = layout;
  t.planes_.reserve(static_cast<std::size_t>(bits));
  for (int b = 0; b < bits; ++b) {
    t.planes_.emplace_back(rows, cols, layout, non_k_pad);
  }
  return t;
}

MatrixI32 StackedBitTensor::compose() const {
  MatrixI32 out(rows_, cols_, 0);
  for (int b = 0; b < bits(); ++b) {
    const BitMatrix& p = plane(b);
    for (i64 r = 0; r < rows_; ++r) {
      for (i64 c = 0; c < cols_; ++c) {
        out(r, c) |= (p.get(r, c) ? 1 : 0) << b;
      }
    }
  }
  return out;
}

i64 StackedBitTensor::bytes() const {
  i64 total = 0;
  for (const BitMatrix& p : planes_) total += p.bytes();
  return total;
}

}  // namespace qgtc

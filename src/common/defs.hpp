// Core type aliases, padding helpers, and assertion macros shared by every
// QGTC subsystem.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace qgtc {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Number of bits packed into one storage word (paper §4.2: 32-bit alignment
/// for PyTorch interoperability).
inline constexpr int kWordBits = 32;

/// Tensor-core `b1` tile shape (paper §2.3: M=N=8, K=128 for 1-bit WMMA).
inline constexpr int kTileM = 8;
inline constexpr int kTileN = 8;
inline constexpr int kTileK = 128;
inline constexpr int kTileKWords = kTileK / kWordBits;  // 4 x u32 per tile row

/// Round `x` up to a multiple of `m` (m > 0).
[[nodiscard]] constexpr i64 round_up(i64 x, i64 m) { return (x + m - 1) / m * m; }

/// Paper §4.2 padding operators for the 8x8x128 TC tile constraint.
[[nodiscard]] constexpr i64 pad8(i64 x) { return round_up(x, 8); }
[[nodiscard]] constexpr i64 pad128(i64 x) { return round_up(x, 128); }

/// Ceiling division for non-negative operands.
[[nodiscard]] constexpr i64 ceil_div(i64 a, i64 b) { return (a + b - 1) / b; }

/// 8x8 bit transpose of a u64 whose byte i holds 8 bits of value i: returns
/// the u64 whose byte b holds bit b of every value (value i at bit i). Three
/// delta swaps. Shared by the bit decomposition and every packed-plane drain.
[[nodiscard]] constexpr u64 transpose8x8_bits(u64 x) {
  u64 t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Throwing check used on public API boundaries (stays on in release builds,
/// unlike assert); reports the failing condition and a caller message.
#define QGTC_CHECK(cond, msg)                                                 \
  do {                                                                        \
    if (!(cond)) {                                                            \
      throw std::invalid_argument(std::string("QGTC_CHECK failed: ") + #cond + \
                                  " — " + (msg));                             \
    }                                                                         \
  } while (0)

}  // namespace qgtc

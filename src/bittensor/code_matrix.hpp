// Row-major u8 code matrix: the form a fused stage hands its requantized
// output in when the consuming stage runs a code kernel (the row gather or
// the code dot), which would otherwise unpack the bit planes straight back
// into these codes. See DESIGN.md, "Code handoff".
#pragma once

#include "common/defs.hpp"

namespace qgtc {

/// Row-stride and row-count granularity of a code matrix: the code dot reads
/// whole 32-code K runs (tcsim::kCodeDotAlign) and whole groups of four
/// 8-row blocks.
inline constexpr i64 kCodeAlign = 32;

/// Non-owning view of an s-bit (s <= 8) activation stored one u8 code per
/// element, row r at data + r * stride. Invariants, set by the kernel that
/// writes the view and relied on by the kernels that read it:
///  * stride is a multiple of kCodeAlign and at least cols;
///  * bytes [cols, stride) of every row are zero, and so is every byte of
///    rows [rows, padded_rows());
///  * every code is below 2^bits.
/// The storage (bytes() of it) belongs to the caller, typically a per-thread
/// workspace slot.
struct CodeMatrix {
  u8* data = nullptr;
  i64 rows = 0;
  i64 cols = 0;
  i64 stride = 0;
  int bits = 0;

  /// A view of `rows` x `cols` `bits`-bit codes over `storage`, which must
  /// hold bytes_for(rows, cols).
  [[nodiscard]] static CodeMatrix over(u8* storage, i64 rows, i64 cols,
                                       int bits) {
    return {storage, rows, cols, round_up(cols, kCodeAlign), bits};
  }
  [[nodiscard]] static i64 bytes_for(i64 rows, i64 cols) {
    return round_up(rows, kCodeAlign) * round_up(cols, kCodeAlign);
  }

  [[nodiscard]] i64 padded_rows() const { return round_up(rows, kCodeAlign); }
  [[nodiscard]] u8* row(i64 r) const { return data + r * stride; }
};

}  // namespace qgtc

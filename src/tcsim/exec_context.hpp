// ExecutionContext — the object threaded through all four layers
// (tcsim -> kernels -> engine -> api; see DESIGN.md, "Execution contexts").
//
// A context bundles the three pieces of substrate state a kernel call needs:
//
//   * the SubstrateBackend that executes 8x8x128 tile ops,
//   * access to the per-thread workspace arena (padded accumulators,
//     surviving-K-tile lists, tile accumulator lanes — reused across calls
//     instead of heap-allocated per kernel),
//   * a counter sink: either this context's private counter block (engine
//     worker contexts, so per-batch-stream accounting merges
//     deterministically) or the process-wide per-thread tcsim counters
//     (the default context — unchanged legacy semantics).
//
// Contexts are cheap, immovable, and safe to share across threads: counter
// notes are atomic, the backend is a stateless singleton, and workspaces are
// keyed by OS thread, not by context.
#pragma once

#include <atomic>
#include <vector>

#include "common/matrix.hpp"
#include "tcsim/backend.hpp"
#include "tcsim/wmma.hpp"

namespace qgtc::tcsim {

/// Per-OS-thread scratch arena. Each named slot is a single-checkout buffer:
/// a kernel checks it out, uses it within the call, and the next call on the
/// same thread reuses the storage (capacity only grows). Slots are distinct
/// per use-site so nested kernel calls on one thread never alias.
class Workspace {
 public:
  /// Zeroed padded accumulator of at least rows x cols (reallocates only on
  /// shape growth/change; the engine's same-shaped batches hit the cache).
  MatrixI32& padded_acc(i64 rows, i64 cols);

  /// Uninitialised int32 scratch matrix of rows x cols (reallocates only on
  /// shape change; `slot` keys independent use-sites so stages with different
  /// shapes don't thrash each other's storage). Unlike padded_acc it is NOT
  /// zeroed: callers must fully overwrite the logical region (the unfused
  /// epilogue paths assign every element via flush_epilogue).
  MatrixI32& int32_scratch(int slot, i64 rows, i64 cols);

  /// `n` cleared K-tile lists (one per row block, shared across the N sweep).
  std::vector<std::vector<i64>>& k_lists(i64 n);

  /// Cleared sparse-schedule entry list (per row block, inside parallel
  /// loops) — the operand of SubstrateBackend::mma_tile_list.
  std::vector<SparseTileRef>& tile_refs();

  /// Cleared K-run list (per row block, inside parallel loops) — the
  /// operand of SubstrateBackend::code_gemm_rows.
  std::vector<KRun>& k_runs();

  /// Uninitialised, 64-byte-aligned u64 tile-accumulator scratch.
  u64* acc_lanes(i64 lanes);

  /// Uninitialised, 64-byte-aligned u8 scratch: the row gather's unpacked
  /// quantized code rows (one per stage, filled by the calling thread and
  /// read by the stage's inner threads).
  u8* code_scratch(i64 bytes);

  /// Uninitialised, 64-byte-aligned i16 scratch: a weight's CodePanels,
  /// packed by the calling thread when the code dot's caller brought none
  /// and read by the stage's inner threads.
  i16* code_panels(i64 elems);

  /// Uninitialised, 64-byte-aligned u8 scratch: the code dot's unpacked
  /// activation codes for the row blocks one worker owns (distinct from
  /// code_scratch, which the calling thread holds while it works too).
  u8* row_codes(i64 bytes);

  /// Uninitialised, 64-byte-aligned i16 scratch: the code dot's A pairs, one
  /// row block's codes widened for code_gemm_rows (per worker).
  i16* code_pairs(i64 elems);

  /// Uninitialised, 64-byte-aligned i32 scratch: the code dot's finished row
  /// block, code_gemm_rows' output and the drain's input (per worker).
  i32* code_block(i64 lanes);

  /// Uninitialised, 64-byte-aligned u8 storage for a stage's output code
  /// matrix (CodeMatrix). Slots ping-pong between consecutive stages of a
  /// forward pass: a stage reads the previous stage's slot while it writes
  /// its own.
  u8* code_activation(int slot, i64 bytes);

  /// Uninitialised, 64-byte-aligned i32 scratch: the row gather's per-thread
  /// accumulator rows (one row block).
  i32* gather_lanes(i64 lanes);

  /// Uninitialised i64 storage of a neighbour list's row offsets and
  /// per-row-block jump counts, and i32 storage of its neighbour ids: one
  /// adjacency's expansion, filled by the calling thread's stage team and
  /// read by every row gather over that adjacency until the thread expands
  /// again.
  i64* neighbour_index(i64 elems);
  i32* neighbour_ids(i64 elems);

  /// Bytes currently retained by this thread's arena.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  MatrixI32 padded_acc_;
  std::vector<MatrixI32> int32_scratch_;
  std::vector<std::vector<i64>> k_lists_;
  std::vector<SparseTileRef> tile_refs_;
  std::vector<KRun> k_runs_;
  AlignedVector<u64> acc_lanes_;
  AlignedVector<u8> code_scratch_;
  AlignedVector<u8> row_codes_;
  AlignedVector<i16> code_panels_;
  AlignedVector<i16> code_pairs_;
  AlignedVector<i32> code_block_;
  std::vector<AlignedVector<u8>> code_activations_;
  AlignedVector<i32> gather_lanes_;
  AlignedVector<i64> neighbour_index_;
  AlignedVector<i32> neighbour_ids_;
};

/// This OS thread's arena (created on first use, lives for the thread).
Workspace& thread_workspace();

class ExecutionContext {
 public:
  /// Default context: process default backend, counters routed to the global
  /// per-thread tcsim counter registry (legacy snapshot semantics).
  ExecutionContext();

  /// Context with an explicit backend. With `private_counters` (the engine's
  /// per-worker mode) substrate accounting lands in this context's own
  /// atomic counter block instead of the global registry.
  explicit ExecutionContext(BackendKind kind, bool private_counters = true);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  [[nodiscard]] const SubstrateBackend& backend() const { return *backend_; }
  [[nodiscard]] BackendKind backend_kind() const { return backend_->kind(); }
  [[nodiscard]] bool has_private_counters() const { return private_; }

  /// The calling thread's workspace arena.
  [[nodiscard]] Workspace& workspace() const { return thread_workspace(); }

  /// Bulk substrate accounting (one note per kernel row-block). Thread-safe.
  void note(const Counters& delta) const;

  /// Counters attributed to this context (private mode) or the global
  /// all-thread snapshot (default mode).
  [[nodiscard]] Counters counters() const;

  /// Zero this context's counters (private mode) or the global registry.
  void reset_counters();

  /// The process-wide default context (used when kernel callers pass none).
  static const ExecutionContext& default_context();

 private:
  const SubstrateBackend* backend_;
  bool private_;
  mutable std::atomic<u64> bmma_ops_{0};
  mutable std::atomic<u64> frag_loads_a_{0};
  mutable std::atomic<u64> frag_loads_b_{0};
  mutable std::atomic<u64> frag_stores_{0};
  mutable std::atomic<u64> tiles_jumped_{0};
  mutable std::atomic<u64> int32_bytes_avoided_{0};
  mutable std::atomic<u64> gather_edges_{0};
  mutable std::atomic<u64> code_macs_{0};
};

}  // namespace qgtc::tcsim

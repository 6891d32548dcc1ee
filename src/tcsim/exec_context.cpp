#include "tcsim/exec_context.hpp"

namespace qgtc::tcsim {
namespace {

/// v's storage, grown to at least n elements (capacity only grows).
template <typename T>
T* grown(AlignedVector<T>& v, i64 n) {
  if (static_cast<i64>(v.size()) < n) v.resize(static_cast<std::size_t>(n));
  return v.data();
}

}  // namespace

MatrixI32& Workspace::padded_acc(i64 rows, i64 cols) {
  if (padded_acc_.rows() != rows || padded_acc_.cols() != cols) {
    padded_acc_ = MatrixI32(rows, cols, 0);
  } else {
    padded_acc_.fill(0);
  }
  return padded_acc_;
}

MatrixI32& Workspace::int32_scratch(int slot, i64 rows, i64 cols) {
  if (static_cast<std::size_t>(slot) >= int32_scratch_.size()) {
    int32_scratch_.resize(static_cast<std::size_t>(slot) + 1);
  }
  MatrixI32& m = int32_scratch_[static_cast<std::size_t>(slot)];
  if (m.rows() != rows || m.cols() != cols) m = MatrixI32(rows, cols);
  return m;
}

std::vector<std::vector<i64>>& Workspace::k_lists(i64 n) {
  k_lists_.resize(static_cast<std::size_t>(n));
  for (auto& l : k_lists_) l.clear();
  return k_lists_;
}

std::vector<SparseTileRef>& Workspace::tile_refs() {
  tile_refs_.clear();
  return tile_refs_;
}

std::vector<KRun>& Workspace::k_runs() {
  k_runs_.clear();
  return k_runs_;
}

u64* Workspace::acc_lanes(i64 lanes) { return grown(acc_lanes_, lanes); }

u8* Workspace::code_scratch(i64 bytes) { return grown(code_scratch_, bytes); }

u8* Workspace::row_codes(i64 bytes) { return grown(row_codes_, bytes); }

i16* Workspace::code_panels(i64 elems) { return grown(code_panels_, elems); }

i16* Workspace::code_pairs(i64 elems) { return grown(code_pairs_, elems); }

i32* Workspace::code_block(i64 lanes) { return grown(code_block_, lanes); }

u8* Workspace::code_activation(int slot, i64 bytes) {
  if (static_cast<std::size_t>(slot) >= code_activations_.size()) {
    code_activations_.resize(static_cast<std::size_t>(slot) + 1);
  }
  return grown(code_activations_[static_cast<std::size_t>(slot)], bytes);
}

i32* Workspace::gather_lanes(i64 lanes) { return grown(gather_lanes_, lanes); }

i64* Workspace::neighbour_index(i64 elems) {
  return grown(neighbour_index_, elems);
}

i32* Workspace::neighbour_ids(i64 elems) { return grown(neighbour_ids_, elems); }

std::size_t Workspace::footprint_bytes() const {
  std::size_t b = static_cast<std::size_t>(padded_acc_.size()) * sizeof(i32) +
                  tile_refs_.capacity() * sizeof(SparseTileRef) +
                  k_runs_.capacity() * sizeof(KRun) +
                  acc_lanes_.size() * sizeof(u64) + code_scratch_.size() +
                  row_codes_.size() + gather_lanes_.size() * sizeof(i32) +
                  (code_panels_.size() + code_pairs_.size()) * sizeof(i16) +
                  code_block_.size() * sizeof(i32) +
                  neighbour_index_.size() * sizeof(i64) +
                  neighbour_ids_.size() * sizeof(i32);
  for (const auto& m : int32_scratch_) {
    b += static_cast<std::size_t>(m.size()) * sizeof(i32);
  }
  for (const auto& l : k_lists_) b += l.capacity() * sizeof(i64);
  for (const auto& v : code_activations_) b += v.size();
  return b;
}

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

ExecutionContext::ExecutionContext()
    : backend_(&qgtc::tcsim::backend(default_backend())), private_(false) {}

ExecutionContext::ExecutionContext(BackendKind kind, bool private_counters)
    : backend_(&qgtc::tcsim::backend(kind)), private_(private_counters) {}

void ExecutionContext::note(const Counters& delta) const {
  if (!private_) {
    thread_counters() += delta;
    return;
  }
  bmma_ops_.fetch_add(delta.bmma_ops, std::memory_order_relaxed);
  frag_loads_a_.fetch_add(delta.frag_loads_a, std::memory_order_relaxed);
  frag_loads_b_.fetch_add(delta.frag_loads_b, std::memory_order_relaxed);
  frag_stores_.fetch_add(delta.frag_stores, std::memory_order_relaxed);
  tiles_jumped_.fetch_add(delta.tiles_jumped, std::memory_order_relaxed);
  int32_bytes_avoided_.fetch_add(delta.int32_bytes_avoided,
                                 std::memory_order_relaxed);
  gather_edges_.fetch_add(delta.gather_edges, std::memory_order_relaxed);
  code_macs_.fetch_add(delta.code_macs, std::memory_order_relaxed);
}

Counters ExecutionContext::counters() const {
  if (!private_) return snapshot_counters();
  Counters c;
  c.bmma_ops = bmma_ops_.load(std::memory_order_relaxed);
  c.frag_loads_a = frag_loads_a_.load(std::memory_order_relaxed);
  c.frag_loads_b = frag_loads_b_.load(std::memory_order_relaxed);
  c.frag_stores = frag_stores_.load(std::memory_order_relaxed);
  c.tiles_jumped = tiles_jumped_.load(std::memory_order_relaxed);
  c.int32_bytes_avoided = int32_bytes_avoided_.load(std::memory_order_relaxed);
  c.gather_edges = gather_edges_.load(std::memory_order_relaxed);
  c.code_macs = code_macs_.load(std::memory_order_relaxed);
  return c;
}

void ExecutionContext::reset_counters() {
  if (!private_) {
    qgtc::tcsim::reset_counters();
    return;
  }
  bmma_ops_.store(0, std::memory_order_relaxed);
  frag_loads_a_.store(0, std::memory_order_relaxed);
  frag_loads_b_.store(0, std::memory_order_relaxed);
  frag_stores_.store(0, std::memory_order_relaxed);
  tiles_jumped_.store(0, std::memory_order_relaxed);
  int32_bytes_avoided_.store(0, std::memory_order_relaxed);
  gather_edges_.store(0, std::memory_order_relaxed);
  code_macs_.store(0, std::memory_order_relaxed);
}

const ExecutionContext& ExecutionContext::default_context() {
  static const ExecutionContext ctx;
  return ctx;
}

}  // namespace qgtc::tcsim

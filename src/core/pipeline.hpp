// Staged executor (paper §4.6 / §6 deployed as a pipeline): items flow from
// a source through three stages connected by bounded queues —
//
//   source --> prepare (P workers) --[BoundedQueue, depth]--> ship (1 worker)
//        --[BoundedQueue, depth]--> compute (C workers)
//
// The *source* hands over items in turn: an epoch's batch ids 0..n-1
// (run_stream_epoch) or serving's coalesced micro-batches. *prepare* builds
// an item's data (lazily from the global CSR + features, or a ref to a
// resident batch), *ship* packs it into a double-buffered StagingRing slot
// and charges the PcieModel inline (on the timed path), *compute* runs the
// forward pass. Peak resident memory is O(depth) prepared items instead of
// O(epoch): a full prep queue blocks the producers until compute drains.
//
// Prepare and ship run on std::threads; compute is an OpenMP team on the
// calling thread, so kernel-level OpenMP regions inside a compute worker are
// nested (inactive) and the thread-local kernel workspaces and the OpenMP
// pool stay warm across runs.
//
// The GPU analogy (see DESIGN.md substitution table): prepare workers are
// the host-side DataLoader threads, the ship worker is the copy engine
// feeding pinned buffers, compute workers are the device streams. Epochs
// replay their batches on a two-engine timeline (serial copy engine, serial
// compute engine) to report the modelled wire time that was NOT hidden
// behind compute (`exposed_transfer_seconds`).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "transfer/packing.hpp"

namespace qgtc::core {

/// Bounded multi-producer / multi-consumer queue connecting pipeline stages.
/// push() blocks while the queue is full; pop() blocks while it is empty.
/// close() ends the stream: pops drain the remaining items, then return
/// nullopt. abort() additionally drops pending items and fails in-flight
/// pushes — the shutdown-on-exception path, so a throwing stage never leaves
/// a peer blocked on a queue that will not move again.
///
/// Every blocking entry point reports the time it actually spent blocked
/// through an optional `blocked_seconds` out-param (0.0 on the uncontended
/// fast path, which skips the clock reads entirely). This is the stall half
/// of every stage's busy-vs-stall decomposition: callers previously could
/// not tell queue wait from service time without wrapping the queue in
/// their own timers.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : cap_(capacity) {
    QGTC_CHECK(capacity >= 1, "queue capacity must be >= 1");
  }

  /// False when the queue was closed/aborted before the item went in.
  /// `blocked_seconds` (optional) receives the time spent waiting for space.
  bool push(T&& v, double* blocked_seconds = nullptr) {
    std::unique_lock lock(mu_);
    if (blocked_seconds != nullptr) *blocked_seconds = 0.0;
    if (items_.size() >= cap_ && !closed_) {
      const Timer t;
      not_full_.wait(lock, [&] { return items_.size() < cap_ || closed_; });
      if (blocked_seconds != nullptr) *blocked_seconds = t.seconds();
    }
    if (closed_) return false;
    items_.push_back(std::move(v));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Outcome of a timed pop: an item, a timeout (queue still live), or the
  /// end of the stream (closed and drained / aborted).
  enum class PopStatus { kItem, kTimeout, kClosed };

  /// pop() with a deadline: waits up to `timeout_us` for an item, writing it
  /// into `out` on success. kTimeout means the queue is still open but
  /// nothing arrived in time — the serving batcher's max-wait dispatch edge.
  /// `blocked_seconds` receives the wait time (including a full timeout).
  PopStatus pop_for(i64 timeout_us, T& out, double* blocked_seconds = nullptr) {
    std::unique_lock lock(mu_);
    if (blocked_seconds != nullptr) *blocked_seconds = 0.0;
    if (items_.empty() && !closed_) {
      const Timer t;
      const bool ready =
          not_empty_.wait_for(lock, std::chrono::microseconds(timeout_us),
                              [&] { return !items_.empty() || closed_; });
      if (blocked_seconds != nullptr) *blocked_seconds = t.seconds();
      if (!ready) return PopStatus::kTimeout;
    }
    if (items_.empty()) return PopStatus::kClosed;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return PopStatus::kItem;
  }

  /// Nullopt when the stream ended (closed and drained, or aborted).
  /// `blocked_seconds` (optional) receives the time spent waiting for items.
  std::optional<T> pop(double* blocked_seconds = nullptr) {
    std::unique_lock lock(mu_);
    if (blocked_seconds != nullptr) *blocked_seconds = 0.0;
    if (items_.empty() && !closed_) {
      const Timer t;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
      if (blocked_seconds != nullptr) *blocked_seconds = t.seconds();
    }
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  /// No more pushes; pending items still drain through pop().
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Close and drop pending items (failure shutdown — nothing downstream
  /// should consume work from a broken epoch).
  void abort() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
      items_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<T> items_;
  std::size_t cap_;
  bool closed_ = false;
};

/// Overlap accounting: replays one epoch on the modelled two-engine timeline.
/// The copy engine executes the per-batch wire times serially; the compute
/// engine executes the measured per-batch compute times serially, and batch
/// i's compute cannot start before its transfer lands. The returned value is
/// the total time the compute engine sat idle waiting on a transfer — the
/// modelled wire time NOT hidden behind compute. In a healthy pipeline this
/// converges to ~the first batch's wire time; in a transfer-bound epoch it
/// approaches the full wire total.
double exposed_transfer_seconds(std::span<const double> wire_seconds,
                                std::span<const double> compute_seconds);

/// Adds `blocked` seconds of queue wait to `stage`'s stall time and emits it
/// as a (`cat`, `name`) trace span ending now: the stall half of a stage's
/// busy/stall split (the busy half is the stage-body span).
inline void note_stall(obs::StageBreakdown& stage, const char* cat,
                       const char* name, double blocked) {
  if (blocked <= 0.0) return;
  stage.stall_seconds += blocked;
  const u64 dur = static_cast<u64>(blocked * 1e9);
  obs::emit_span(cat, name, obs::SpanSink::now_ns() - dur, dur);
}

/// Stage worker layout of one pipeline run.
struct StreamEpochConfig {
  /// Epoch length (run_stream_epoch only; serving's source is open-ended).
  i64 num_batches = 0;
  /// Capacity of each inter-stage queue: peak resident prepared batches is
  /// ~2*depth + workers (both queues full + items held by stage hands).
  int depth = 2;
  int prepare_workers = 1;
  /// Size of the compute stage's OpenMP team, clamped to
  /// omp_get_max_threads() like parallel_for_workers.
  int compute_workers = 1;
};

/// What a pipeline run's stages add up. Busy-vs-stall is summed over each
/// stage's workers (so a stage's busy+stall can exceed wall time when it has
/// several workers). Stall is time blocked on the source or the queues — a
/// stalling prepare stage means depth/workers are undersized, a stalling
/// compute stage means prepare or ship is the bottleneck.
struct StageTotals {
  obs::StageBreakdown prepare_stage;
  obs::StageBreakdown ship_stage;
  obs::StageBreakdown compute_stage;
  // Transfer accounting, charged inline by the ship stage.
  i64 packed_bytes = 0;
  i64 adj_bytes = 0;
  double wire_seconds = 0;  // total modelled PCIe time
  // Items whose ship stage reported a device-resident payload
  // (transfer::resident_reuse() — BatchCache hits skipping pack + wire).
  i64 resident_reuse_batches = 0;
};

/// Per-epoch accounting the pipeline hands back to the engine.
struct StreamEpochStats : StageTotals {
  double epoch_seconds = 0;    // wall time, all three stages overlapped
  double exposed_seconds = 0;  // wire time not hidden behind compute
  // Peak bytes of simultaneously-live prepared batches (the O(depth) bound)
  // plus the staging-ring allocation high-water.
  i64 peak_prepared_bytes = 0;
  i64 staging_capacity_bytes = 0;
};

/// Runs items through the three-stage pipeline until the source ends and
/// returns the peak bytes of simultaneously-live prepared items. `ring` is
/// the ship stage's staging-slot ring; the caller owns it so its capacity
/// survives across runs (the pinned-buffer discipline). Each stage adds to
/// `totals`, under `totals_mu`, as every item leaves it, so the totals can
/// be read while the pipeline runs.
///
///   source(i, blocked)    -> optional<Item>  item i, or nullopt to end the
///                                            stream; `blocked` = its wait
///   prepare(item, i)      -> void            build item i's data in place
///   bytes(item)           -> i64             resident size (peak accounting)
///   ship(item, i, slot)   -> PackedSubgraph  pack into a staging slot
///   compute(item, i, w)   -> void            forward pass on worker w
///   fail(item, error)     -> void            a stage threw `error` on item
///
/// Indices count source requests from 0. Compute worker ids are dense in
/// [0, min(compute_workers, omp_get_max_threads())). Items may ship and
/// compute out of order. When `fail` returns, only its item is dropped
/// (serving); when it throws, both queues abort, every worker unwinds, and
/// the first exception is rethrown here after all threads joined (epochs).
template <typename Item, typename SourceFn, typename PrepareFn,
          typename BytesFn, typename ShipFn, typename ComputeFn,
          typename FailFn>
i64 run_stage_pipeline(const StreamEpochConfig& cfg,
                       transfer::StagingRing& ring, StageTotals& totals,
                       std::mutex& totals_mu, SourceFn&& source,
                       PrepareFn&& prepare, BytesFn&& bytes, ShipFn&& ship,
                       ComputeFn&& compute, FailFn&& fail) {
  QGTC_CHECK(cfg.depth >= 1, "pipeline depth must be >= 1");
  QGTC_CHECK(cfg.prepare_workers >= 1 && cfg.compute_workers >= 1,
             "stage worker counts must be >= 1");

  struct Slot {
    i64 index = 0;
    i64 bytes = 0;  // live from prepare until the item leaves the pipeline
    Item item;
  };
  BoundedQueue<Slot> prep_q(static_cast<std::size_t>(cfg.depth));
  BoundedQueue<Slot> ship_q(static_cast<std::size_t>(cfg.depth));

  std::atomic<i64> next_index{0};
  std::atomic<i64> live_bytes{0};
  std::atomic<i64> peak_bytes{0};

  std::mutex err_mu;
  std::exception_ptr first_error;
  const auto abort_run = [&](std::exception_ptr e) {
    {
      std::lock_guard lock(err_mu);
      if (!first_error) first_error = e;
    }
    prep_q.abort();
    ship_q.abort();
  };
  // Called from a stage's catch block: the item leaves the live set, and
  // fail() either drops it (returns) or aborts the run (throws).
  const auto drop = [&](Slot& s) {
    live_bytes.fetch_sub(s.bytes, std::memory_order_relaxed);
    fail(s.item, std::current_exception());
  };
  const auto add = [&](obs::StageBreakdown StageTotals::*stage,
                       const obs::StageBreakdown& local) {
    std::lock_guard lock(totals_mu);
    totals.*stage += local;
  };

  // The calling thread computes, so the last preparer to finish ends the
  // stream (lets the ship stage drain and close ship_q).
  std::atomic<int> preparers_left{cfg.prepare_workers};
  std::vector<std::thread> prepare_threads;
  prepare_threads.reserve(static_cast<std::size_t>(cfg.prepare_workers));
  for (int p = 0; p < cfg.prepare_workers; ++p) {
    prepare_threads.emplace_back([&] {
      try {
        for (bool more = true; more;) {
          obs::StageBreakdown local;
          const i64 i = next_index.fetch_add(1, std::memory_order_relaxed);
          double blocked = 0.0;
          std::optional<Item> item = source(i, blocked);
          note_stall(local, "prepare", "stall.pop", blocked);
          more = item.has_value();
          if (more) {
            Slot s{i, 0, std::move(*item)};
            const Timer busy;
            bool prepared = true;
            try {
              QGTC_SPAN("prepare", "batch", {{"batch", i}});
              prepare(s.item, i);
              s.bytes = bytes(s.item);
            } catch (...) {
              prepared = false;
              drop(s);
            }
            local.busy_seconds += busy.seconds();
            if (prepared) {
              const i64 live =
                  live_bytes.fetch_add(s.bytes, std::memory_order_relaxed) +
                  s.bytes;
              i64 peak = peak_bytes.load(std::memory_order_relaxed);
              while (live > peak &&
                     !peak_bytes.compare_exchange_weak(
                         peak, live, std::memory_order_relaxed)) {
              }
              more = prep_q.push(std::move(s), &blocked);  // false: aborted
              note_stall(local, "prepare", "stall.push", blocked);
            }
          }
          add(&StageTotals::prepare_stage, local);
        }
      } catch (...) {
        abort_run(std::current_exception());
      }
      if (preparers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        prep_q.close();
      }
    });
  }

  std::thread ship_thread([&] {
    try {
      for (bool more = true; more;) {
        obs::StageBreakdown local;
        double blocked = 0.0;
        std::optional<Slot> s = prep_q.pop(&blocked);
        note_stall(local, "ship", "stall.pop", blocked);
        more = s.has_value();
        std::optional<transfer::PackedSubgraph> packed;
        if (more) {
          const Timer busy;
          try {
            QGTC_SPAN("ship", "batch", {{"batch", s->index}});
            packed = ship(s->item, s->index, ring.next());
          } catch (...) {
            drop(*s);
          }
          local.busy_seconds += busy.seconds();
        }
        if (packed.has_value()) {
          more = ship_q.push(std::move(*s), &blocked);  // false: aborted
          note_stall(local, "ship", "stall.push", blocked);
          std::lock_guard lock(totals_mu);
          totals.packed_bytes += packed->total_bytes;
          totals.adj_bytes += packed->adjacency_bytes;
          totals.wire_seconds += packed->modeled_seconds;
          if (packed->transfers == 0) ++totals.resident_reuse_batches;
        }
        add(&StageTotals::ship_stage, local);
      }
      ship_q.close();
    } catch (...) {
      abort_run(std::current_exception());
    }
  });

  // Compute stage: one loop per team member until ship_q ends. Extra
  // iterations (team clamped below compute_workers) find the stream ended.
  // Nothing may escape the OpenMP region, so failures go through abort_run.
  parallel_for_workers(0, cfg.compute_workers, cfg.compute_workers,
                       [&](i64, int w) {
    try {
      for (bool more = true; more;) {
        obs::StageBreakdown local;
        double blocked = 0.0;
        std::optional<Slot> s = ship_q.pop(&blocked);
        note_stall(local, "compute", "stall.pop", blocked);
        more = s.has_value();
        if (more) {
          const Timer busy;
          try {
            QGTC_SPAN("compute", "batch", {{"batch", s->index}, {"worker", w}});
            compute(s->item, s->index, w);
            live_bytes.fetch_sub(s->bytes, std::memory_order_relaxed);
          } catch (...) {
            drop(*s);
          }
          local.busy_seconds += busy.seconds();
          // `s` (and the prepared item) dies here — O(depth) residency.
        }
        add(&StageTotals::compute_stage, local);
      }
    } catch (...) {
      abort_run(std::current_exception());
    }
  });

  for (std::thread& t : prepare_threads) t.join();
  ship_thread.join();
  {
    std::lock_guard lock(err_mu);
    if (first_error) std::rethrow_exception(first_error);
  }
  return peak_bytes.load(std::memory_order_relaxed);
}

/// Runs one epoch: run_stage_pipeline over batch ids 0..num_batches-1, with
/// prepare(i) -> Item, ship(item, slot) and compute(item, i, w). Any stage
/// exception aborts the epoch and is rethrown here. Callers must not depend
/// on batch execution order (the engine's counters and logits are
/// index-keyed).
template <typename Item, typename PrepareFn, typename BytesFn,
          typename ShipFn, typename ComputeFn>
StreamEpochStats run_stream_epoch(const StreamEpochConfig& cfg,
                                  transfer::StagingRing& ring,
                                  PrepareFn&& prepare, BytesFn&& bytes,
                                  ShipFn&& ship, ComputeFn&& compute) {
  QGTC_CHECK(cfg.num_batches >= 0, "num_batches must be non-negative");
  StreamEpochStats stats;
  if (cfg.num_batches == 0) return stats;
  // Per-batch modelled wire and measured compute time: the overlap replay.
  const std::size_t n = static_cast<std::size_t>(cfg.num_batches);
  std::vector<double> wire(n, 0.0), comp(n, 0.0);
  std::mutex stats_mu;

  const Timer epoch_timer;
  stats.peak_prepared_bytes = run_stage_pipeline<Item>(
      cfg, ring, stats, stats_mu,
      /*source=*/
      [&](i64 i, double&) {
        return i < cfg.num_batches ? std::optional<Item>(std::in_place)
                                   : std::nullopt;
      },
      /*prepare=*/[&](Item& item, i64 i) { item = prepare(i); }, bytes,
      /*ship=*/
      [&](Item& item, i64 i, transfer::StagingBuffer& slot) {
        const transfer::PackedSubgraph packed = ship(item, slot);
        wire[static_cast<std::size_t>(i)] = packed.modeled_seconds;
        return packed;
      },
      /*compute=*/
      [&](Item& item, i64 i, int w) {
        const Timer t;
        compute(item, i, w);
        comp[static_cast<std::size_t>(i)] = t.seconds();
      },
      /*fail=*/
      [](Item&, const std::exception_ptr& e) { std::rethrow_exception(e); });
  stats.epoch_seconds = epoch_timer.seconds();
  stats.staging_capacity_bytes = ring.capacity_bytes();
  stats.exposed_seconds = exposed_transfer_seconds(wire, comp);
  return stats;
}

}  // namespace qgtc::core

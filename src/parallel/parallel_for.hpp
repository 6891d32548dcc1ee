// Thin OpenMP wrappers. All kernel-level parallelism in the repo goes through
// these helpers so scheduling policy and thread-count control live in one
// place (see /opt guides: OpenMP worksharing idioms).
#pragma once

#include <omp.h>

#include "common/defs.hpp"

namespace qgtc {

/// Number of worker threads the parallel runtime will use.
inline int num_threads() { return omp_get_max_threads(); }

/// Override the worker count (propagates to subsequent parallel regions).
inline void set_num_threads(int n) { omp_set_num_threads(n); }

/// Iteration count below which spawning a parallel region costs more than it
/// saves; such loops run serially in the calling thread.
inline constexpr i64 kSerialCutoff = 16;

/// Statically-scheduled parallel loop over [begin, end). Use when iterations
/// have uniform cost (dense tile sweeps). Small ranges run serially — the
/// batched-GNN pipeline issues thousands of small kernels per epoch and
/// region-spawn overhead would dominate (same reason GPU kernels fuse).
template <typename Fn>
void parallel_for(i64 begin, i64 end, Fn&& fn) {
  if (end - begin < kSerialCutoff) {
    for (i64 i = begin; i < end; ++i) fn(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (i64 i = begin; i < end; ++i) fn(i);
}

/// Dynamically-scheduled parallel loop with a chunk size. Use when iteration
/// cost is irregular (zero-tile jumping makes row-block cost data-dependent).
/// The chunk is the unit of scheduled work: workers grab one chunk of
/// `chunk` consecutive iterations at a time, and the serial cutoff counts
/// chunks (too few chunks cannot amortise a region spawn, however many raw
/// iterations they contain).
template <typename Fn>
void parallel_for_dynamic(i64 begin, i64 end, i64 chunk, Fn&& fn) {
  if (chunk < 1) chunk = 1;
  const i64 chunks = ceil_div(end - begin, chunk);
  if (chunks < kSerialCutoff) {
    for (i64 i = begin; i < end; ++i) fn(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 1)
  for (i64 ci = 0; ci < chunks; ++ci) {
    const i64 lo = begin + ci * chunk;
    const i64 hi = (lo + chunk < end) ? lo + chunk : end;
    for (i64 i = lo; i < hi; ++i) fn(i);
  }
}

/// Dynamically-scheduled loop over [begin, end) with an explicit worker
/// count; the body receives (iteration, worker) where worker is in
/// [0, threads). Starts the stage pipeline's compute team (the engine's
/// inter-batch parallelism): each worker owns a per-worker ExecutionContext,
/// so worker indices must be dense and bounded.
/// threads <= 1 runs serially in the caller (worker 0).
template <typename Fn>
void parallel_for_workers(i64 begin, i64 end, int threads, Fn&& fn) {
  // Respect the global OpenMP cap: an explicit num_threads clause would
  // otherwise override OMP_NUM_THREADS, and e.g. TSan runs rely on
  // OMP_NUM_THREADS=1 serialising every OpenMP layer.
  if (threads > omp_get_max_threads()) threads = omp_get_max_threads();
  if (threads <= 1 || end - begin <= 1) {
    for (i64 i = begin; i < end; ++i) fn(i, 0);
    return;
  }
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (i64 i = begin; i < end; ++i) fn(i, omp_get_thread_num());
}

/// Parallel sum-reduction of fn(i) over [begin, end).
template <typename Fn>
double parallel_reduce_sum(i64 begin, i64 end, Fn&& fn) {
  double acc = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : acc)
  for (i64 i = begin; i < end; ++i) acc += fn(i);
  return acc;
}

}  // namespace qgtc

#pragma once
/// \file thread_pool.hpp
/// \brief Deterministic chunked thread pool + pairwise reduction.
///
/// The pool is deliberately work-stealing-free: a parallel region hands out
/// work *indices* from a single atomic counter — fixed-size chunks of
/// `n_items` (parallel_for_chunks) or single tasks that each worker claims
/// whenever it has room for one (parallel_drain). Which thread executes
/// which index is scheduling noise; everything an engine needs for
/// reproducibility is keyed by the index (RNG stream id, result slot), so
/// results are bit-identical for 1 and N threads. reduce_pairwise()
/// completes the pattern: per-chunk partials land in an index-addressed
/// vector (the round scheduler, ckpt/scheduler.hpp) and are merged by a
/// deterministic pairwise tree, never in completion order.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/util/error.hpp"

namespace finser::exec {

namespace detail {
struct DrainState;  // Shared claim state of one region (thread_pool.cpp).
}  // namespace detail

/// The task source parallel_drain() hands each worker.
class TaskCursor {
 public:
  /// Claim the next task index into \p task. False once every task is
  /// claimed, the region's cancel token has fired or another worker threw:
  /// the worker then finishes the tasks it holds and returns.
  bool next(std::size_t& task);

  /// Executing worker slot in [0, thread_count()).
  std::size_t worker() const { return worker_; }

 private:
  friend class ThreadPool;
  TaskCursor(detail::DrainState& state, std::size_t worker)
      : state_(&state), worker_(worker) {}

  detail::DrainState* state_;
  std::size_t worker_;
};

/// One chunk of a parallel region.
struct ChunkRange {
  std::size_t index;   ///< Chunk index — the deterministic key.
  std::size_t begin;   ///< First item of the chunk.
  std::size_t end;     ///< One past the last item.
  std::size_t worker;  ///< Executing worker slot in [0, thread_count()).
};

/// Chunked fork-join pool. Worker threads persist across regions; the
/// calling thread participates as worker slot 0, so a pool with
/// thread_count() == 1 runs regions inline with zero synchronization
/// overhead. Regions must not be launched from inside the pool's own
/// workers (nest by giving inner engines their own pool / thread budget).
class ThreadPool {
 public:
  /// \param threads total concurrency including the caller;
  ///        0 = resolve_threads(0) (FINSER_THREADS, else hardware).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of a region (workers + the calling thread).
  std::size_t thread_count() const { return workers_count_ + 1; }

  /// Run \p fn over ceil(n_items / chunk) chunks and block until the region
  /// drains. The first exception thrown by \p fn aborts the region
  /// (remaining chunks are skipped) and is rethrown here.
  ///
  /// If \p cancel is non-null, workers poll it before claiming each chunk
  /// and stop at the next chunk boundary once it fires; chunks already
  /// started still run to completion, so the region never leaves
  /// partial-chunk state behind. Returns true iff every chunk executed
  /// (false means the region was cancelled; the set of executed chunk
  /// indices is whatever \p fn recorded).
  bool parallel_for_chunks(std::size_t n_items, std::size_t chunk,
                           const std::function<void(const ChunkRange&)>& fn,
                           const CancelToken* cancel = nullptr);

  /// Run \p fn once on every worker slot and block until all return. Each
  /// worker pulls task indices in [0, n_tasks) from one shared cursor, one
  /// claim at a time and only when it has room for another task, so a
  /// worker that interleaves several tasks (a lane-batched simulator) stays
  /// full until the list runs dry. \p fn must run every task it claims to
  /// completion. The first exception thrown by \p fn stops further claims
  /// and is rethrown here. With \p cancel set, every claim polls it; once
  /// it fires no task is handed out, and the tasks already claimed finish.
  /// Returns true iff every task was claimed. `exec.items` counts
  /// \p n_tasks and `exec.chunks` the claimed tasks, so neither depends on
  /// the thread count.
  bool parallel_drain(std::size_t n_tasks,
                      const std::function<void(TaskCursor&)>& fn,
                      const CancelToken* cancel = nullptr);

 private:
  /// The region both entry points run: \p fn on every worker slot over
  /// \p n_claims indices. Returns the number of indices claimed.
  std::size_t run_region(std::size_t n_claims,
                         const std::function<void(TaskCursor&)>& fn,
                         const CancelToken* cancel);

  struct Impl;
  Impl* impl_;
  std::size_t workers_count_;
};

/// Deterministic pairwise tree reduction: merges (0,1), (2,3), ... and
/// repeats until one value remains. Independent of how \p parts were
/// produced, and numerically better-conditioned than a left fold for long
/// chains of Welford merges.
template <typename T, typename MergeFn>
T reduce_pairwise(std::vector<T> parts, MergeFn merge) {
  FINSER_REQUIRE(!parts.empty(), "reduce_pairwise: nothing to reduce");
  while (parts.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
      parts[out++] = merge(std::move(parts[i]), std::move(parts[i + 1]));
    }
    if (parts.size() % 2 == 1) parts[out++] = std::move(parts.back());
    parts.resize(out);
  }
  return std::move(parts.front());
}

}  // namespace finser::exec

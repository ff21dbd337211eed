#pragma once
/// \file thread_pool.hpp
/// \brief Deterministic chunked thread pool + pairwise reduction.
///
/// The pool is deliberately work-stealing-free: a parallel region splits
/// `n_items` into fixed-size chunks and the workers claim chunk *indices*
/// from a single atomic counter. Which thread executes which chunk is
/// scheduling noise; everything an engine needs for reproducibility is keyed
/// by the chunk index (RNG stream id, partial-result slot), so results are
/// bit-identical for 1 and N threads. reduce_pairwise() completes the
/// pattern: per-chunk partials land in an index-addressed vector (the round
/// scheduler, ckpt/scheduler.hpp) and are merged by a deterministic pairwise
/// tree, never in completion order.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/util/error.hpp"

namespace finser::exec {

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

 private:
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

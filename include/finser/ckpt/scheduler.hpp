#pragma once
/// \file scheduler.hpp
/// \brief In-memory round scheduler of the chunked Monte-Carlo engines.
///
/// A run is n items (strikes, histories) split into fixed-size chunks, the
/// unit of work. Each chunk's typed partial lands in the slot of its index,
/// and the completed prefix comes back in index order, so callers reduce it
/// exactly as a serial run would: the result never depends on which thread
/// computed which chunk.
///
/// Chunks execute in rounds. A fixed budget is one round; an adaptive
/// budget uses geometric rounds (round_boundaries) and asks a convergence
/// predicate at each boundary short of the last. The predicate sees only
/// the completed prefix, so the stopping decision is the same at any thread
/// or worker count.
///
/// Cancellation is cooperative: the pool polls the token between chunks,
/// never inside one, and a cancelled run throws util::Cancelled holding no
/// partial-chunk state. Nothing here touches the disk; what survives an
/// interruption is what callers persisted per finished product — the
/// `array_bin` and `pof_table` artifacts (docs/robustness.md).

#include <cstddef>
#include <functional>
#include <vector>

#include "finser/exec/cancel.hpp"
#include "finser/exec/thread_pool.hpp"

namespace finser::ckpt {

/// Geometric round schedule of an adaptive run.
struct AdaptiveSchedule {
  std::size_t min_units = 8;  ///< Units before the first decision.
  double growth = 2.0;        ///< Round-size growth factor (>= 1).
};

/// Boundaries b_0 < b_1 < ... = n_units of the adaptive rounds:
/// b_0 = min(n_units, max(1, min_units)), b_{k+1} = min(n_units,
/// max(b_k + 1, ceil(b_k * growth))). A pure function of its arguments,
/// never of the thread schedule that executes the rounds.
std::vector<std::size_t> round_boundaries(std::size_t n_units,
                                          const AdaptiveSchedule& schedule);

/// Type-erased core of run_rounds(): splits \p n_items into chunks of
/// \p chunk items (the last one may be ragged) and runs chunks
/// [0, bounds.back()) on \p pool one round at a time, calling \p unit with
/// each chunk's global ChunkRange. bounds.back() must be the chunk count.
/// After each boundary b short of the last, \p stop(b) may end the run; it
/// is required when there is more than one round. Throws util::Cancelled
/// once \p cancel fires. Returns the number of completed chunks, always a
/// boundary.
std::size_t run_round_schedule(
    exec::ThreadPool& pool, std::size_t n_items, std::size_t chunk,
    const std::vector<std::size_t>& bounds, const exec::CancelToken* cancel,
    const std::function<void(const exec::ChunkRange&)>& unit,
    const std::function<bool(std::size_t)>& stop);

/// Run \p n_items in chunks of \p chunk items, one \p compute partial per
/// chunk, in the rounds of \p bounds: {chunk count} for a fixed budget,
/// round_boundaries(chunk count, schedule) for an adaptive one. Returns the
/// partials of the completed chunks [0, size()) — fewer than the chunk
/// count iff the predicate stopped the run early. \p converged is called at
/// each boundary short of the last with the boundary and every slot:
/// [0, done) hold the completed prefix, later slots are still
/// default-constructed. It must be a pure function of that prefix.
template <typename T>
std::vector<T> run_rounds(
    exec::ThreadPool& pool, std::size_t n_items, std::size_t chunk,
    const std::vector<std::size_t>& bounds, const exec::CancelToken* cancel,
    const std::function<T(const exec::ChunkRange&)>& compute,
    const std::function<bool(std::size_t, const std::vector<T>&)>& converged =
        {}) {
  std::vector<T> parts(bounds.empty() ? 0 : bounds.back());
  std::function<bool(std::size_t)> stop;
  if (converged) {
    stop = [&](std::size_t done) { return converged(done, parts); };
  }
  parts.resize(run_round_schedule(
      pool, n_items, chunk, bounds, cancel,
      [&](const exec::ChunkRange& r) { parts[r.index] = compute(r); }, stop));
  return parts;
}

}  // namespace finser::ckpt

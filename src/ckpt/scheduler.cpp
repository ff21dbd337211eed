#include "finser/ckpt/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "finser/util/error.hpp"

namespace finser::ckpt {

std::vector<std::size_t> round_boundaries(std::size_t n_units,
                                          const AdaptiveSchedule& schedule) {
  FINSER_REQUIRE(n_units > 0, "ckpt::round_boundaries: no work units");
  FINSER_REQUIRE(schedule.growth >= 1.0,
                 "ckpt::round_boundaries: growth must be >= 1");
  std::vector<std::size_t> bounds;
  std::size_t b =
      std::min(n_units, std::max<std::size_t>(1, schedule.min_units));
  bounds.push_back(b);
  while (b < n_units) {
    const double grown = std::ceil(static_cast<double>(b) * schedule.growth);
    std::size_t next = b + 1;
    if (grown >= static_cast<double>(n_units)) {
      next = n_units;
    } else if (grown > static_cast<double>(next)) {
      next = static_cast<std::size_t>(grown);
    }
    b = next;
    bounds.push_back(b);
  }
  return bounds;
}

std::size_t run_round_schedule(
    exec::ThreadPool& pool, std::size_t n_items, std::size_t chunk,
    const std::vector<std::size_t>& bounds, const exec::CancelToken* cancel,
    const std::function<void(const exec::ChunkRange&)>& unit,
    const std::function<bool(std::size_t)>& stop) {
  FINSER_REQUIRE(n_items > 0 && chunk > 0, "ckpt::run_rounds: empty region");
  const std::size_t n_chunks = (n_items + chunk - 1) / chunk;
  FINSER_REQUIRE(!bounds.empty() && bounds.back() == n_chunks,
                 "ckpt::run_rounds: rounds must end at the last chunk");
  FINSER_REQUIRE(bounds.size() == 1 || static_cast<bool>(stop),
                 "ckpt::run_rounds: a multi-round schedule needs a "
                 "convergence predicate");
  std::size_t lo = 0;
  for (const std::size_t bound : bounds) {
    FINSER_REQUIRE(bound > lo, "ckpt::run_rounds: boundaries must increase");
    // The round region re-bases its chunks at lo so chunk r.index keeps its
    // global identity (RNG stream, partial slot) regardless of rounds.
    const std::size_t base = lo * chunk;
    const bool completed = pool.parallel_for_chunks(
        std::min(n_items, bound * chunk) - base, chunk,
        [&](const exec::ChunkRange& r) {
          unit(exec::ChunkRange{r.index + lo, r.begin + base, r.end + base,
                                r.worker});
        },
        cancel);
    if (!completed) throw util::Cancelled("run cancelled at a chunk boundary");
    lo = bound;
    if (bound < n_chunks && stop(bound)) break;
  }
  return lo;
}

}  // namespace finser::ckpt

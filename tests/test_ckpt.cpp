/// \file test_ckpt.cpp
/// \brief The in-memory round scheduler (ckpt/scheduler.hpp): fixed-budget
/// runs (RunUnits), adaptive rounds and the convergence predicate's view
/// (RoundBoundaries, RunUnitsAdaptive), and cooperative cancellation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "finser/ckpt/scheduler.hpp"
#include "finser/exec/cancel.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/util/error.hpp"

namespace finser::ckpt {
namespace {

/// A unit's partial: its own index, so slot order is checkable.
std::size_t unit_value(const exec::ChunkRange& u) { return u.index + 1; }

using Converged =
    std::function<bool(std::size_t, const std::vector<std::size_t>&)>;

TEST(RoundBoundaries, GeometricScheduleEndsAtUnitCount) {
  const AdaptiveSchedule sched{4, 2.0};
  EXPECT_EQ(round_boundaries(100, sched),
            (std::vector<std::size_t>{4, 8, 16, 32, 64, 100}));
  // Boundaries always make progress, even with growth 1.
  EXPECT_EQ(round_boundaries(4, AdaptiveSchedule{1, 1.0}),
            (std::vector<std::size_t>{1, 2, 3, 4}));
  // min_units above n collapses to a single round.
  EXPECT_EQ(round_boundaries(5, AdaptiveSchedule{8, 2.0}),
            (std::vector<std::size_t>{5}));
  // min_units 0 still starts at one unit.
  EXPECT_EQ(round_boundaries(3, AdaptiveSchedule{0, 3.0}),
            (std::vector<std::size_t>{1, 3}));
}

/// A fixed budget (one round) without a token computes every unit and
/// returns the partials in index order.
TEST(RunUnits, ComputesEverythingWhenInactive) {
  exec::ThreadPool pool(2);
  std::atomic<std::size_t> computed{0};
  const std::vector<std::size_t> out = run_rounds<std::size_t>(
      pool, 8, 1, {8}, nullptr, [&](const exec::ChunkRange& u) {
        ++computed;
        return unit_value(u);
      });
  EXPECT_EQ(computed.load(), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i + 1);
}

/// The parallel-reduce pattern on the scheduler: chunk partials over a
/// ragged item range reduce pairwise to the serial sum; an empty region is
/// a caller error.
TEST(Reduce, ParallelReduceSumsItems) {
  exec::ThreadPool pool(4);
  const std::vector<long> out = run_rounds<long>(
      pool, 5000, 128, {40}, nullptr, [](const exec::ChunkRange& r) {
        long s = 0;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          s += static_cast<long>(i);
        }
        return s;
      });
  ASSERT_EQ(out.size(), 40u);
  EXPECT_EQ(exec::reduce_pairwise(out,
                                  [](long a, long b) { return a + b; }),
            4999L * 5000L / 2L);
  EXPECT_THROW(run_rounds<long>(pool, 0, 16, {0}, nullptr,
                                [](const exec::ChunkRange&) { return 0L; }),
               util::InvalidArgument);
}

TEST(RunUnits, CancelStopsAtAUnitBoundaryAndThrows) {
  exec::ThreadPool pool(1);
  exec::CancelToken token;
  std::size_t ran = 0;
  EXPECT_THROW(run_rounds<std::size_t>(pool, 6, 1, {6}, &token,
                                       [&](const exec::ChunkRange& u) {
                                         ++ran;
                                         // Fire mid-run, inside unit 1.
                                         if (u.index == 1) token.cancel();
                                         return unit_value(u);
                                       }),
               util::Cancelled);
  // With one thread, units 0 and 1 ran to completion; the cancel stopped
  // the rest before they started.
  EXPECT_EQ(ran, 2u);
}

TEST(RunUnitsAdaptive, StopsAtFirstConvergedBoundary) {
  exec::ThreadPool pool(2);
  std::atomic<std::size_t> computed{0};
  const AdaptiveSchedule sched{2, 2.0};  // Boundaries 2, 4, 8, 12.
  const std::vector<std::size_t> out = run_rounds<std::size_t>(
      pool, 12, 1, round_boundaries(12, sched), nullptr,
      [&](const exec::ChunkRange& u) {
        ++computed;
        return unit_value(u);
      },
      Converged([](std::size_t done, const std::vector<std::size_t>&) {
        return done >= 4;  // Converged at the second boundary.
      }));
  EXPECT_EQ(computed.load(), 4u);  // Later rounds never ran.
  ASSERT_EQ(out.size(), 4u);       // Stopped early: only the prefix.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(RunUnitsAdaptive, NeverConvergedRunsEveryUnit) {
  exec::ThreadPool pool(2);
  const std::vector<std::size_t> out = run_rounds<std::size_t>(
      pool, 10, 1, round_boundaries(10, AdaptiveSchedule{2, 2.0}), nullptr,
      unit_value,
      Converged([](std::size_t, const std::vector<std::size_t>&) {
        return false;
      }));
  ASSERT_EQ(out.size(), 10u);
}

TEST(RunUnitsAdaptive, PredicateSeesOnlyTheCompletedPrefixInOrder) {
  exec::ThreadPool pool(4);
  std::vector<std::size_t> decision_points;
  run_rounds<std::size_t>(
      pool, 20, 1, round_boundaries(20, AdaptiveSchedule{4, 2.0}), nullptr,
      unit_value,
      Converged([&](std::size_t done, const std::vector<std::size_t>& parts) {
        decision_points.push_back(done);
        // The prefix [0, done) holds the right partials and everything
        // beyond it is still default-constructed — regardless of the thread
        // schedule that computed the round.
        for (std::size_t i = 0; i < done; ++i) {
          EXPECT_EQ(parts[i], i + 1) << "unit " << i;
        }
        for (std::size_t i = done; i < parts.size(); ++i) {
          EXPECT_EQ(parts[i], 0u) << "unit " << i;
        }
        return false;
      }));
  // Final boundary (done == n_units) needs no decision.
  EXPECT_EQ(decision_points, (std::vector<std::size_t>{4, 8, 16}));
}

/// A multi-round schedule is an adaptive run: it needs its predicate.
TEST(RunUnitsAdaptive, RequiresAPredicate) {
  exec::ThreadPool pool(1);
  EXPECT_THROW(run_rounds<std::size_t>(pool, 4, 1, {2, 4}, nullptr,
                                       unit_value),
               util::InvalidArgument);
}

}  // namespace
}  // namespace finser::ckpt

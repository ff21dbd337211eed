#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "finser/core/array_mc.hpp"
#include "finser/exec/exec.hpp"
#include "finser/exec/progress.hpp"
#include "finser/exec/thread_pool.hpp"
#include "finser/obs/obs.hpp"
#include "finser/stats/rng.hpp"
#include "finser/util/error.hpp"

namespace finser::exec {
namespace {

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

TEST(ExecConfig, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ExecConfig, ExplicitRequestWins) {
  setenv("FINSER_THREADS", "7", 1);
  EXPECT_EQ(resolve_threads(3), 3u);
  unsetenv("FINSER_THREADS");
}

TEST(ExecConfig, EnvUsedWhenRequestIsAuto) {
  setenv("FINSER_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5u);
  unsetenv("FINSER_THREADS");
  EXPECT_EQ(resolve_threads(0), hardware_threads());
}

TEST(ExecConfig, MalformedEnvIsRejected) {
  for (const char* bad : {"0", "-2", "abc", "", "2.5", "3x"}) {
    setenv("FINSER_THREADS", bad, 1);
    EXPECT_EQ(threads_from_env(), 0u) << "value: \"" << bad << '"';
  }
  setenv("FINSER_THREADS", "4", 1);
  EXPECT_EQ(threads_from_env(), 4u);
  setenv("FINSER_THREADS", "4 ", 1);  // Trailing whitespace tolerated.
  EXPECT_EQ(threads_from_env(), 4u);
  unsetenv("FINSER_THREADS");
  EXPECT_EQ(threads_from_env(), 0u);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryItemExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  const std::size_t n = 1237;  // Deliberately not a multiple of the chunk.
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_chunks(n, 64, [&](const ChunkRange& r) {
    EXPECT_LT(r.worker, pool.thread_count());
    for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ChunkDecompositionIsThreadCountInvariant) {
  auto ranges_with = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::array<std::size_t, 3>> out;
    pool.parallel_for_chunks(1000, 96, [&](const ChunkRange& r) {
      std::lock_guard<std::mutex> lock(mu);
      out.push_back({r.index, r.begin, r.end});
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ranges_with(1), ranges_with(4));
}

TEST(ThreadPool, EmptyRegionIsNoOp) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for_chunks(0, 16, [&](const ChunkRange&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for_chunks(10, 3, [&](const ChunkRange& r) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(r.worker, 0u);
  });
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_chunks(100, 1,
                               [](const ChunkRange& r) {
                                 if (r.index == 17)
                                   throw std::runtime_error("chunk 17");
                               }),
      std::runtime_error);
  // The pool survives the exception and runs subsequent regions.
  std::atomic<std::size_t> count{0};
  pool.parallel_for_chunks(50, 5, [&](const ChunkRange&) { ++count; });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for_chunks(100, 7, [&](const ChunkRange& r) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        sum.fetch_add(static_cast<long>(i));
      }
    });
  }
  EXPECT_EQ(sum.load(), 20L * (99L * 100L / 2L));
}

// ---------------------------------------------------------------------------
// ThreadPool::parallel_drain
// ---------------------------------------------------------------------------

/// Snapshot counter by name (0 when absent).
std::uint64_t counter(const char* name) {
  for (const auto& row : obs::Registry::global().snapshot().counters) {
    if (row.name == name) return row.total;
  }
  return 0;
}

// Every task index is claimed exactly once, by workers that hold several
// tasks at a time, and exec.items / exec.chunks count tasks, not workers.
TEST(ThreadPool, DrainClaimsEveryTaskOnce) {
  constexpr std::size_t kTasks = 301;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kTasks);
    std::atomic<std::size_t> workers{0};
    obs::Registry::global().reset();
    obs::set_enabled(true);
    const bool completed = pool.parallel_drain(kTasks, [&](TaskCursor& cursor) {
      EXPECT_LT(cursor.worker(), pool.thread_count());
      ++workers;
      // Interleave up to three tasks, as a lane-batched worker does.
      std::vector<std::size_t> held;
      std::size_t task = 0;
      for (;;) {
        while (held.size() < 3 && cursor.next(task)) held.push_back(task);
        if (held.empty()) break;
        hits[held.front()].fetch_add(1);
        held.erase(held.begin());
      }
    });
    obs::set_enabled(false);
    EXPECT_TRUE(completed);
    EXPECT_EQ(workers.load(), threads);
    for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(counter("exec.items"), kTasks) << threads << " threads";
    EXPECT_EQ(counter("exec.chunks"), kTasks) << threads << " threads";
    EXPECT_EQ(counter("exec.regions"), 1u);
  }
  obs::Registry::global().reset();
  ThreadPool pool(2);
  bool called = false;
  EXPECT_TRUE(pool.parallel_drain(0, [&](TaskCursor&) { called = true; }));
  EXPECT_FALSE(called);
}

// Once the token fires no task is handed out; tasks already claimed finish.
TEST(ThreadPool, DrainStopsClaimingWhenCancelled) {
  ThreadPool pool(4);
  CancelToken token;
  std::atomic<std::size_t> ran{0};
  const bool completed = pool.parallel_drain(
      1000,
      [&](TaskCursor& cursor) {
        std::size_t task = 0;
        while (cursor.next(task)) {
          ++ran;
          token.cancel();
        }
      },
      &token);
  EXPECT_FALSE(completed);
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LT(ran.load(), 1000u);
  std::atomic<std::size_t> ran2{0};
  EXPECT_FALSE(pool.parallel_drain(
      10,
      [&](TaskCursor& cursor) {
        std::size_t task = 0;
        while (cursor.next(task)) ++ran2;
      },
      &token));
  EXPECT_EQ(ran2.load(), 0u);
}

// A worker's exception stops every worker's claims and is rethrown; the
// pool runs the next region normally.
TEST(ThreadPool, DrainRethrowsAndStopsClaims) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_drain(10000,
                                   [&](TaskCursor& cursor) {
                                     std::size_t task = 0;
                                     while (cursor.next(task)) {
                                       ++ran;
                                       if (task == 5) {
                                         throw std::runtime_error("task 5");
                                       }
                                       std::this_thread::sleep_for(
                                           std::chrono::microseconds(50));
                                     }
                                   }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 10000u);
  std::atomic<std::size_t> count{0};
  EXPECT_TRUE(pool.parallel_drain(50, [&](TaskCursor& cursor) {
    std::size_t task = 0;
    while (cursor.next(task)) ++count;
  }));
  EXPECT_EQ(count.load(), 50u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

TEST(CancelToken, SetResetHandshake) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // Idempotent.
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(ThreadPool, NullCancelTokenRunsEverything) {
  ThreadPool pool(3);
  std::atomic<std::size_t> ran{0};
  const bool completed = pool.parallel_for_chunks(
      100, 4, [&](const ChunkRange&) { ++ran; }, nullptr);
  EXPECT_TRUE(completed);
  EXPECT_EQ(ran.load(), 25u);
}

TEST(ThreadPool, CancelStopsAtChunkBoundary) {
  ThreadPool pool(4);
  CancelToken token;
  std::atomic<std::size_t> ran{0};
  const bool completed = pool.parallel_for_chunks(
      1000, 1,
      [&](const ChunkRange&) {
        ++ran;
        token.cancel();  // Fired from inside the first executing chunks.
      },
      &token);
  EXPECT_FALSE(completed);
  // Chunks already claimed still finish (no mid-chunk interruption), but the
  // region stops well short of the full 1000.
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LT(ran.load(), 1000u);

  // An already-cancelled token stops the region before any chunk runs.
  std::atomic<std::size_t> ran2{0};
  EXPECT_FALSE(pool.parallel_for_chunks(
      100, 1, [&](const ChunkRange&) { ++ran2; }, &token));
  EXPECT_EQ(ran2.load(), 0u);

  // After a reset the same pool and token run a full region again.
  token.reset();
  std::atomic<std::size_t> ran3{0};
  EXPECT_TRUE(pool.parallel_for_chunks(
      100, 1, [&](const ChunkRange&) { ++ran3; }, &token));
  EXPECT_EQ(ran3.load(), 100u);
}

TEST(CancelToken, SignalHandlerRoutesSigintToToken) {
  CancelToken token;
  install_signal_cancel(&token);
  std::raise(SIGINT);
  EXPECT_TRUE(token.cancelled());
  // Restore the default disposition before the token leaves scope.
  install_signal_cancel(nullptr);
}

TEST(CancelToken, SignalFanoutForwardsSigtermToRegisteredChildren) {
  // The supervisor registers worker pids so one Ctrl-C stops the whole
  // fleet. Fork a child with default SIGTERM disposition, register it, and
  // check the forwarded signal kills it.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (;;) ::pause();  // Waits for the fan-out SIGTERM.
  }

  CancelToken token;
  install_signal_cancel(&token);
  ASSERT_TRUE(signal_fanout_add(static_cast<int>(child)));
  EXPECT_TRUE(signal_fanout_add(static_cast<int>(child)));  // Idempotent.
  EXPECT_FALSE(signal_fanout_add(0));  // Pid 0 would signal our own group.

  std::raise(SIGTERM);
  EXPECT_TRUE(token.cancelled());
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  // Remove frees the slot; a later signal must not touch the stale pid.
  signal_fanout_remove(static_cast<int>(child));
  token.reset();
  std::raise(SIGTERM);
  EXPECT_TRUE(token.cancelled());
  install_signal_cancel(nullptr);
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

TEST(Reduce, PairwiseMatchesFold) {
  std::vector<double> parts(13);
  std::iota(parts.begin(), parts.end(), 1.0);
  const double got =
      reduce_pairwise(parts, [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(got, 13.0 * 14.0 / 2.0);
  EXPECT_THROW(reduce_pairwise(std::vector<double>{},
                               [](double a, double b) { return a + b; }),
               util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Deterministic RNG streams
// ---------------------------------------------------------------------------

TEST(RngStream, SameStreamIdReproduces) {
  stats::Rng a = stats::Rng::stream(42, 7);
  stats::Rng b = stats::Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngStream, DistinctStreamsAndRootsDiffer) {
  std::set<std::uint64_t> firsts;
  for (std::uint64_t id = 0; id < 256; ++id) {
    firsts.insert(stats::Rng::stream(42, id)());
  }
  EXPECT_EQ(firsts.size(), 256u);  // No collisions across stream ids.
  EXPECT_NE(stats::Rng::stream(1, 0)(),
            stats::Rng::stream(2, 0)());
  EXPECT_EQ(stats::Rng::derive_seed(9, 3), stats::Rng::derive_seed(9, 3));
  EXPECT_NE(stats::Rng::derive_seed(9, 3), stats::Rng::derive_seed(9, 4));
}

// ---------------------------------------------------------------------------
// ProgressSink
// ---------------------------------------------------------------------------

TEST(Progress, DisabledSinkIsNoOp) {
  const ProgressSink sink;
  EXPECT_FALSE(static_cast<bool>(sink));
  sink.message("ignored");
  sink.start_phase("x", 10);
  sink.tick(10);
  EXPECT_EQ(sink.completed(), 0u);
}

TEST(Progress, CountsTicksFromManyThreads) {
  std::vector<std::string> lines;
  std::mutex mu;
  const ProgressSink sink(
      [&](const std::string& m) {
        std::lock_guard<std::mutex> lock(mu);
        lines.push_back(m);
      },
      std::chrono::milliseconds(0));
  sink.start_phase("strikes", 1000);
  ThreadPool pool(4);
  pool.parallel_for_chunks(1000, 10,
                           [&](const ChunkRange& r) { sink.tick(r.end - r.begin); });
  EXPECT_EQ(sink.completed(), 1000u);
  // The final line is always emitted, whatever the throttle swallowed.
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("1000/1000"), std::string::npos);
}

TEST(Progress, ThrottleSuppressesFloodButKeepsFinalTick) {
  int calls = 0;
  const ProgressSink sink([&](const std::string&) { ++calls; },
                          std::chrono::milliseconds(10000));
  sink.start_phase("work", 500);
  for (int i = 0; i < 500; ++i) sink.tick();
  // First emission plus the guaranteed final one at most.
  EXPECT_LE(calls, 2);
  EXPECT_GE(calls, 1);
  EXPECT_EQ(sink.completed(), 500u);
}

TEST(Progress, MessageNeverThrottled) {
  int calls = 0;
  const ProgressSink sink([&](const std::string&) { ++calls; },
                          std::chrono::milliseconds(10000));
  for (int i = 0; i < 5; ++i) sink.message("m");
  EXPECT_EQ(calls, 5);
}

TEST(Progress, ImplicitFromLambdaKeepsCallSitesWorking) {
  std::string got;
  const ProgressSink sink = [&](const std::string& m) { got = m; };
  EXPECT_TRUE(static_cast<bool>(sink));
  sink.message("hello");
  EXPECT_EQ(got, "hello");
}

// ---------------------------------------------------------------------------
// PofAccumulator: merged chunks must reproduce the single-pass statistics
// ---------------------------------------------------------------------------

TEST(PofAccumulator, MergedChunksEqualSinglePass) {
  stats::Rng rng(123);
  std::vector<core::CombinedPof> obs(4097);
  for (auto& o : obs) {
    o.tot = rng.uniform(0.0, 1.0);
    o.seu = 0.8 * o.tot;
    o.mbu = o.tot - o.seu;
  }

  const auto dist_of = [](const core::CombinedPof& o) {
    core::PofAccumulator::Multiplicity dist{};
    dist[0] = 1.0 - o.tot;
    dist[1] = o.seu;
    dist[2] = o.mbu;
    return dist;
  };

  core::PofAccumulator single;
  for (const auto& o : obs) single.add(o, dist_of(o), 1.0, false);

  // Chunked accumulation with an uneven tail, merged pairwise.
  const std::size_t chunk = 256;
  std::vector<core::PofAccumulator> parts;
  for (std::size_t b = 0; b < obs.size(); b += chunk) {
    core::PofAccumulator acc;
    for (std::size_t i = b; i < std::min(b + chunk, obs.size()); ++i) {
      acc.add(obs[i], dist_of(obs[i]), 1.0, false);
    }
    parts.push_back(acc);
  }
  const core::PofAccumulator merged = reduce_pairwise(
      parts, [](core::PofAccumulator a, const core::PofAccumulator& b) {
        a.merge(b);
        return a;
      });

  EXPECT_EQ(merged.count(), single.count());
  const core::PofEstimate es = single.finalize(obs.size(), 1.0);
  const core::PofEstimate em = merged.finalize(obs.size(), 1.0);
  // The Chan merge is exact for counts and near-exact for mean/M2; allow a
  // few ulps of reassociation noise.
  EXPECT_NEAR(em.tot, es.tot, 1e-13);
  EXPECT_NEAR(em.seu, es.seu, 1e-13);
  EXPECT_NEAR(em.mbu, es.mbu, 1e-13);
  EXPECT_NEAR(em.tot_se, es.tot_se, 1e-13);
  EXPECT_NEAR(em.seu_se, es.seu_se, 1e-13);
  EXPECT_NEAR(em.mbu_se, es.mbu_se, 1e-13);
  for (std::size_t n = 0; n < core::kMaxMultiplicity; ++n) {
    EXPECT_NEAR(em.multiplicity[n], es.multiplicity[n], 1e-13) << n;
  }
}

}  // namespace
}  // namespace finser::exec

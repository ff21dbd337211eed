#include "finser/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "finser/exec/exec.hpp"
#include "finser/obs/obs.hpp"

namespace finser::exec {

namespace detail {

/// Claim state of the current region: an atomic cursor over n indices, the
/// cancel token it polls and the first time a worker saw the token fired.
struct DrainState {
  std::size_t n = 0;
  const CancelToken* cancel = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::uint64_t> cancel_seen_ns{0};  // now_ns() at first detection.

  /// Stop handing out indices: workers finish what they hold and return.
  void close() { next.store(n, std::memory_order_relaxed); }
};

}  // namespace detail

bool TaskCursor::next(std::size_t& task) {
  detail::DrainState& s = *state_;
  // The cancel token is polled only here, between claims, so a claimed
  // index either runs to completion or is never handed out.
  if (s.cancel != nullptr && s.cancel->cancelled()) {
    if (obs::enabled()) {
      std::uint64_t expect = 0;
      s.cancel_seen_ns.compare_exchange_strong(expect, obs::now_ns(),
                                               std::memory_order_relaxed);
    }
    s.close();
    return false;
  }
  if (s.next.load(std::memory_order_relaxed) >= s.n) return false;
  const std::size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= s.n) return false;
  s.claimed.fetch_add(1, std::memory_order_relaxed);
  task = i;
  return true;
}

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  std::mutex m;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t epoch = 0;   // Bumped once per region.
  std::size_t busy = 0;      // Workers still inside the current region.
  bool stop = false;

  // Current region (valid between the epoch bump and busy == 0).
  const std::function<void(TaskCursor&)>* fn = nullptr;
  detail::DrainState state;
  std::exception_ptr error;

  /// Run the region body on worker slot \p slot. Any schedule is fine:
  /// claimed indices, not threads, key the deterministic state.
  void run_slot(std::size_t slot) {
    TaskCursor cursor(state, slot);
    try {
      (*fn)(cursor);
    } catch (...) {
      std::lock_guard<std::mutex> lk(m);
      if (!error) error = std::current_exception();
      // Fail fast instead of finishing a region whose result is already
      // lost.
      state.close();
    }
  }

  void worker_main(std::size_t slot) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(m);
        start_cv.wait(lk, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
      }
      run_slot(slot);
      {
        std::lock_guard<std::mutex> lk(m);
        if (--busy == 0) done_cv.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  const std::size_t n = resolve_threads(threads);
  workers_count_ = n - 1;
  impl_->workers.reserve(workers_count_);
  for (std::size_t slot = 1; slot <= workers_count_; ++slot) {
    impl_->workers.emplace_back([this, slot] { impl_->worker_main(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->stop = true;
  }
  impl_->start_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ThreadPool::run_region(std::size_t n_claims,
                                   const std::function<void(TaskCursor&)>& fn,
                                   const CancelToken* cancel) {
  detail::DrainState& state = impl_->state;
  state.n = n_claims;
  state.cancel = cancel;
  state.next.store(0, std::memory_order_relaxed);
  state.claimed.store(0, std::memory_order_relaxed);
  state.cancel_seen_ns.store(0, std::memory_order_relaxed);

  if (workers_count_ == 0) {
    // Inline fast path: no synchronization, identical claim order and
    // identical cancellation points; exceptions propagate directly.
    TaskCursor cursor(state, 0);
    fn(cursor);
  } else {
    {
      std::lock_guard<std::mutex> lk(impl_->m);
      impl_->fn = &fn;
      impl_->error = nullptr;
      impl_->busy = workers_count_;
      ++impl_->epoch;
    }
    impl_->start_cv.notify_all();

    impl_->run_slot(0);  // The caller is worker slot 0.

    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lk(impl_->m);
      impl_->done_cv.wait(lk, [&] { return impl_->busy == 0; });
      impl_->fn = nullptr;
      error = impl_->error;
    }
    if (error) std::rethrow_exception(error);
  }

  const std::size_t claimed = state.claimed.load(std::memory_order_relaxed);
  if (claimed != n_claims) {
    FINSER_OBS_COUNT("exec.cancelled_regions", 1);
    const std::uint64_t seen =
        state.cancel_seen_ns.load(std::memory_order_relaxed);
    if (obs::enabled() && seen != 0) {
      // Latency from the first worker noticing the cancel to the region
      // fully draining (workers parked, caller unblocked).
      const std::uint64_t end = obs::now_ns();
      static obs::DurationStat& latency =
          obs::Registry::global().duration("exec.cancel_latency");
      latency.record_ns(end > seen ? end - seen : 0);
    }
  }
  return claimed;
}

bool ThreadPool::parallel_for_chunks(
    std::size_t n_items, std::size_t chunk,
    const std::function<void(const ChunkRange&)>& fn,
    const CancelToken* cancel) {
  FINSER_REQUIRE(chunk > 0, "ThreadPool: chunk size must be positive");
  if (n_items == 0) return true;
  const std::size_t n_chunks = (n_items + chunk - 1) / chunk;
  obs::ScopedSpan region_span("exec.region");
  FINSER_OBS_COUNT("exec.regions", 1);
  FINSER_OBS_COUNT("exec.items", n_items);
  FINSER_OBS_GAUGE("exec.region_chunks", n_chunks);
  return run_region(
             n_chunks,
             [&](TaskCursor& cursor) {
               std::size_t i = 0;
               while (cursor.next(i)) {
                 obs::ScopedSpan span("exec.chunk");
                 fn({i, i * chunk, std::min(n_items, (i + 1) * chunk),
                     cursor.worker()});
                 FINSER_OBS_COUNT("exec.chunks", 1);
               }
             },
             cancel) == n_chunks;
}

bool ThreadPool::parallel_drain(std::size_t n_tasks,
                                const std::function<void(TaskCursor&)>& fn,
                                const CancelToken* cancel) {
  if (n_tasks == 0) return true;
  obs::ScopedSpan region_span("exec.region");
  FINSER_OBS_COUNT("exec.regions", 1);
  FINSER_OBS_COUNT("exec.items", n_tasks);
  const std::size_t claimed = run_region(n_tasks, fn, cancel);
  FINSER_OBS_COUNT("exec.chunks", claimed);
  return claimed == n_tasks;
}

}  // namespace finser::exec

#include "finser/obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>

namespace finser::obs {

namespace detail {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_trace_enabled{false};

unsigned thread_id() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

/// Lock-free monotonic max/min update for atomics (no fetch_max in C++20's
/// library on all toolchains; a CAS loop is equivalent and contention-free
/// at metric-update rates).
template <typename T>
void atomic_store_max(std::atomic<T>& a, T v) {
  T cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

template <typename T>
void atomic_store_min(std::atomic<T>& a, T v) {
  T cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
  if (!on) detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  if (on) detail::g_enabled.store(true, std::memory_order_relaxed);
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  // steady_clock is monotonic; rebase on the first call so trace timestamps
  // start near zero (Chrome tracing renders offsets, not absolutes).
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// ---------------------------------------------------------------------------
// IntHistogram
// ---------------------------------------------------------------------------

void IntHistogram::record(std::uint64_t value) {
  const unsigned width = static_cast<unsigned>(std::bit_width(value));
  const std::size_t bucket = std::min<std::size_t>(width, kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  detail::atomic_store_min(min_, value);
  detail::atomic_store_max(max_, value);
}

std::uint64_t IntHistogram::count() const {
  return count_.load(std::memory_order_relaxed);
}
std::uint64_t IntHistogram::sum() const {
  return sum_.load(std::memory_order_relaxed);
}
std::uint64_t IntHistogram::min() const {
  return min_.load(std::memory_order_relaxed);
}
std::uint64_t IntHistogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

std::array<std::uint64_t, IntHistogram::kBuckets> IntHistogram::buckets() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

void IntHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// DurationStat / Gauge
// ---------------------------------------------------------------------------

void DurationStat::record_ns(std::uint64_t ns) {
  count_.fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(ns, std::memory_order_relaxed);
  detail::atomic_store_min(min_, ns);
  detail::atomic_store_max(max_, ns);
}

std::uint64_t DurationStat::min_ns() const {
  const std::uint64_t v = min_.load(std::memory_order_relaxed);
  return v == ~0ull ? 0 : v;
}
std::uint64_t DurationStat::max_ns() const {
  return max_.load(std::memory_order_relaxed);
}

void DurationStat::reset() {
  count_.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void Gauge::set(std::int64_t v) {
  value_.store(v, std::memory_order_relaxed);
  detail::atomic_store_max(max_, v);
}

std::int64_t Gauge::max() const {
  const std::int64_t v = max_.load(std::memory_order_relaxed);
  return v == INT64_MIN ? value() : v;
}

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex m;
  // std::map keeps iteration sorted by name — snapshot order falls out for
  // free. Values are unique_ptrs so references survive rehash-free forever.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<IntHistogram>> histograms;
  std::map<std::string, std::unique_ptr<DurationStat>> durations;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::vector<TraceEvent> trace;
  std::uint64_t dropped_trace = 0;
};

Registry& Registry::global() {
  static Registry r;
  return r;
}

Registry::Impl& Registry::impl() const {
  static Impl i;  // Never destroyed order-dependently before metric users.
  return i;
}

Counter& Registry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  auto& slot = i.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

IntHistogram& Registry::int_histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  auto& slot = i.histograms[name];
  if (!slot) slot = std::make_unique<IntHistogram>();
  return *slot;
}

DurationStat& Registry::duration(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  auto& slot = i.durations[name];
  if (!slot) slot = std::make_unique<DurationStat>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  auto& slot = i.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

void Registry::record_trace(TraceEvent event) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  if (i.trace.size() >= kMaxTraceEvents) {
    ++i.dropped_trace;
    return;
  }
  i.trace.push_back(std::move(event));
}

std::vector<TraceEvent> Registry::trace_events() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  return i.trace;
}

std::uint64_t Registry::dropped_trace_events() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  return i.dropped_trace;
}

Snapshot Registry::snapshot() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  Snapshot s;
  s.counters.reserve(i.counters.size());
  for (const auto& [name, c] : i.counters) {
    s.counters.push_back({name, c->total()});
  }
  s.histograms.reserve(i.histograms.size());
  for (const auto& [name, h] : i.histograms) {
    Snapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.sum = h->sum();
    row.min = row.count > 0 ? h->min() : 0;
    row.max = h->max();
    row.buckets = h->buckets();
    s.histograms.push_back(std::move(row));
  }
  s.durations.reserve(i.durations.size());
  for (const auto& [name, d] : i.durations) {
    s.durations.push_back({name, d->count(), d->total_ns(), d->min_ns(), d->max_ns()});
  }
  s.gauges.reserve(i.gauges.size());
  for (const auto& [name, g] : i.gauges) {
    s.gauges.push_back({name, g->value(), g->max()});
  }
  return s;
}

void Registry::reset() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.m);
  for (auto& kv : i.counters) kv.second->reset();
  for (auto& kv : i.histograms) kv.second->reset();
  for (auto& kv : i.durations) kv.second->reset();
  for (auto& kv : i.gauges) kv.second->reset();
  i.trace.clear();
  i.dropped_trace = 0;
}

// ---------------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------------

void ScopedSpan::start(const char* name) {
  name_ = name;
  start_ns_ = now_ns();
  active_ = true;
}

void ScopedSpan::finish() {
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end > start_ns_ ? end - start_ns_ : 0;
  Registry::global().duration(name_).record_ns(dur);
  if (trace_enabled()) {
    TraceEvent ev;
    ev.name = label_.empty() ? std::string(name_) : std::move(label_);
    ev.start_ns = start_ns_;
    ev.dur_ns = dur;
    ev.tid = detail::thread_id();
    Registry::global().record_trace(std::move(ev));
  }
}

}  // namespace finser::obs

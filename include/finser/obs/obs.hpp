#pragma once
/// \file obs.hpp
/// \brief Low-overhead observability: counters, histograms, timers, spans.
///
/// Every layer of the device→circuit→array pipeline reports into one global
/// Registry: the SPICE solvers count Newton iterations and retry-ladder
/// escalations, the characterizer times each supply voltage, the MC engines
/// count strikes and grid queries, the thread pool times chunks. The
/// registry serializes into a versioned RunReport JSON plus an optional
/// Chrome-tracing event file (obs/report.hpp).
///
/// **Cost contract.** Collection is off by default. Every recording macro
/// and span constructor first reads one global flag (a relaxed atomic bool,
/// set once at startup — compiles to a plain load + branch), so the
/// disabled-path overhead is < 2% even on the grid-query hot path
/// (measured: bench_out/obs_overhead.json). Metric handles are resolved
/// once per call site (static local inside the enabled branch) — the name
/// lookup never runs when collection is off, and runs once when on.
///
/// **Determinism contract.** Deterministic metrics (Counter, IntHistogram)
/// hold only 64-bit integer state and are updated commutatively across
/// thread-sharded cells, so their merged totals are bit-identical at any
/// thread count whenever the work itself is (the exec-layer contract:
/// chunk-keyed RNG streams). Wall-clock data (DurationStat, spans) is
/// inherently schedule-dependent and lives in the report's separate
/// "timing" section; the "metrics" section is byte-stable across thread
/// counts for the same seed (tested in tests/test_obs.cpp).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace finser::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_trace_enabled;

/// Small dense id of the calling thread (assigned on first use, stable for
/// the thread's lifetime). Used as the shard key and the trace "tid".
unsigned thread_id();
}  // namespace detail

/// Global collection switch. Reading it is the entire disabled-path cost.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Whether span trace events are being buffered (implies enabled()).
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turn metric collection on/off. Call before the measured region; flipping
/// it mid-region only loses (or gains) events, never corrupts state.
void set_enabled(bool on);

/// Turn span trace-event buffering on/off (forces collection on with it).
void set_trace_enabled(bool on);

/// Monotonic nanoseconds since an arbitrary process-local epoch.
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Deterministic metrics (integer state only)
// ---------------------------------------------------------------------------

/// Monotonic event counter, sharded over cache-line-padded cells to keep
/// parallel increments off each other's cache lines. The merged total is a
/// sum of u64 — order-free, hence thread-count-invariant.
class Counter {
 public:
  /// Record \p n events. Call sites normally go through FINSER_OBS_COUNT
  /// (which guards on enabled()); calling this directly while disabled is
  /// allowed and simply records.
  void add(std::uint64_t n = 1) {
    shards_[detail::thread_id() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Deterministic merged total.
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const Cell& c : shards_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (Cell& c : shards_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 16;  // Power of two (mask index).
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> shards_;
};

/// Histogram of non-negative integer observations (Newton iterations per
/// solve, hits per strike, ...) in power-of-two buckets: bucket b counts
/// values with bit_width b, i.e. 0, 1, 2–3, 4–7, ... All state is u64 and
/// commutative, so the merged result is thread-count-invariant.
class IntHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;  ///< Values ≥ 2³¹ saturate.

  void record(std::uint64_t value);

  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t min() const;  ///< UINT64_MAX when empty.
  std::uint64_t max() const;  ///< 0 when empty.
  std::array<std::uint64_t, kBuckets> buckets() const;

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

// ---------------------------------------------------------------------------
// Timing metrics (wall clock — report "timing" section, never "metrics")
// ---------------------------------------------------------------------------

/// Aggregated wall-time statistic of a named region (count / total / min /
/// max, nanosecond integers). Fed by ScopedSpan.
class DurationStat {
 public:
  void record_ns(std::uint64_t ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t total_ns() const { return total_.load(std::memory_order_relaxed); }
  std::uint64_t min_ns() const;  ///< 0 when empty.
  std::uint64_t max_ns() const;

  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

/// Last-write-wins gauge for level-style observations (queue depth, restart
/// level). Also tracks the maximum. Schedule-dependent → timing section.
class Gauge {
 public:
  void set(std::int64_t v);
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t max() const;  ///< value() (0) when nothing was set.
  void reset();

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One Chrome-tracing "complete" event (ph:"X").
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;  ///< now_ns() at span entry.
  std::uint64_t dur_ns = 0;
  unsigned tid = 0;
};

/// Immutable snapshot of every metric, ready for serialization. Names are
/// sorted, so identical metric content yields identical serialized bytes no
/// matter the registration order.
struct Snapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t total = 0;
  };
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0, sum = 0, min = 0, max = 0;
    std::array<std::uint64_t, IntHistogram::kBuckets> buckets{};
  };
  struct DurationRow {
    std::string name;
    std::uint64_t count = 0, total_ns = 0, min_ns = 0, max_ns = 0;
  };
  struct GaugeRow {
    std::string name;
    std::int64_t value = 0, max = 0;
  };
  std::vector<CounterRow> counters;       ///< Deterministic.
  std::vector<HistogramRow> histograms;   ///< Deterministic.
  std::vector<DurationRow> durations;     ///< Wall clock.
  std::vector<GaugeRow> gauges;           ///< Schedule-dependent.
};

/// Process-global metric registry. Metric objects are created on first
/// lookup and live for the process lifetime (references never dangle);
/// lookup takes a mutex, which is why call sites cache the reference in a
/// function-local static behind the enabled() branch.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  IntHistogram& int_histogram(const std::string& name);
  DurationStat& duration(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Buffer one trace event (bounded; events past the cap are counted in
  /// dropped_trace_events() instead of buffered).
  void record_trace(TraceEvent event);

  std::vector<TraceEvent> trace_events() const;
  std::uint64_t dropped_trace_events() const;

  /// Copy out every metric, names sorted.
  Snapshot snapshot() const;

  /// Zero every metric and drop all trace events. Metric references stay
  /// valid. Intended for test isolation and CLI run boundaries.
  void reset();

  /// Maximum buffered trace events (≈100 MB worst case is far above any
  /// realistic campaign; the cap exists so a runaway span site degrades to
  /// dropped events, not OOM).
  static constexpr std::size_t kMaxTraceEvents = 1u << 20;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII scoped span: records wall time into Registry::duration(name) and,
/// when tracing, buffers a TraceEvent. When collection is disabled the
/// constructor is one flag load — no clock read, no lookup.
class ScopedSpan {
 public:
  /// \p name must outlive the span (string literals in practice).
  explicit ScopedSpan(const char* name) {
    if (enabled()) start(name);
  }

  /// Span with a dynamic trace label (e.g. "bin E=2.5MeV"): aggregates
  /// under \p stat_name, traces as \p trace_label.
  ScopedSpan(const char* name, std::string trace_label) {
    if (enabled()) {
      start(name);
      label_ = std::move(trace_label);
    }
  }

  ~ScopedSpan() {
    if (active_) finish();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void start(const char* name);
  void finish();

  const char* name_ = nullptr;
  std::string label_;  ///< Optional trace-event override label.
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace finser::obs

/// Count \p n events on counter \p name. Disabled cost: one relaxed load and
/// a branch; the registry lookup happens once per site, and only if enabled.
#define FINSER_OBS_COUNT(name, n)                                    \
  do {                                                               \
    if (::finser::obs::enabled()) {                                  \
      static ::finser::obs::Counter& finser_obs_c_ =                 \
          ::finser::obs::Registry::global().counter(name);           \
      finser_obs_c_.add(static_cast<std::uint64_t>(n));              \
    }                                                                \
  } while (false)

/// Record integer \p v into histogram \p name (same cost model).
#define FINSER_OBS_RECORD(name, v)                                   \
  do {                                                               \
    if (::finser::obs::enabled()) {                                  \
      static ::finser::obs::IntHistogram& finser_obs_h_ =            \
          ::finser::obs::Registry::global().int_histogram(name);     \
      finser_obs_h_.record(static_cast<std::uint64_t>(v));           \
    }                                                                \
  } while (false)

/// Set gauge \p name to \p v (same cost model).
#define FINSER_OBS_GAUGE(name, v)                                    \
  do {                                                               \
    if (::finser::obs::enabled()) {                                  \
      static ::finser::obs::Gauge& finser_obs_g_ =                   \
          ::finser::obs::Registry::global().gauge(name);             \
      finser_obs_g_.set(static_cast<std::int64_t>(v));               \
    }                                                                \
  } while (false)

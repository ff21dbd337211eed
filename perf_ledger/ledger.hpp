#pragma once
/// \file ledger.hpp
/// \brief Shared types of the perf_ledger benchmark (README.md).
///
/// perf_ledger has two measuring modes that share the result shape below:
///  * end-to-end (e2e.cpp): the real `finser_cli` as a subprocess, obs and
///    tracing off, wall time from steady_clock and CPU/RSS from wait4();
///  * traced (trace.cpp): the same work replayed in-process through the
///    layers' public functions with a span around every call.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "finser/util/json.hpp"

namespace finser {
namespace core {}
namespace geom {}
namespace obs {}
namespace phys {}
namespace pipeline {}
namespace spice {}
namespace sram {}
namespace stats {}
namespace surface {}
}  // namespace finser

namespace perf_ledger {

// finser's modules under their own names.
namespace core = finser::core;
namespace geom = finser::geom;
namespace obs = finser::obs;
namespace phys = finser::phys;
namespace pipeline = finser::pipeline;
namespace spice = finser::spice;
namespace sram = finser::sram;
namespace stats = finser::stats;
namespace surface = finser::surface;
namespace util = finser::util;

/// The four reference workloads (see README.md for why each exists).
enum class Workload { kColdCampaign, kSweepWarmModel, kCluster2x2, kServeMixed };

const char* workload_name(Workload w);
bool workload_from_name(const std::string& name, Workload& out);
inline constexpr Workload kAllWorkloads[] = {
    Workload::kColdCampaign, Workload::kSweepWarmModel, Workload::kCluster2x2,
    Workload::kServeMixed};

/// Run-wide settings resolved once from the command line.
struct Context {
  std::string cli;        ///< Path of the finser_cli binary under test.
  std::string work_dir;   ///< Scratch directory of this process (removed at exit).
  std::uint64_t seed = 20140601;
  double seconds = 10.0;  ///< Measured time per workload.
  std::size_t threads = 1;  ///< min(4, usable CPUs); passed as --threads.
  bool reference_seed() const { return seed == 20140601; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Result of one workload measurement: the benchmark's output record.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< One line per failed check.
  util::JsonValue info = util::JsonValue::object();  ///< Ledger-only detail.

  bool correct() const { return problems.empty(); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Record a correctness check; returns \p ok.
  bool check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
    return ok;
  }
  /// Count one attempted operation (or run-level check) and its outcome.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// --- statistics (ledger.cpp) -------------------------------------------------

double median(std::vector<double> v);
/// Quartiles exactly as Python's statistics.quantiles(v, n=4) (the
/// "exclusive" method) computes them, so ledger spreads match those that
/// common statistics tools derive from the same values.
std::vector<double> quartiles(std::vector<double> v);
/// Value at quantile \p q in [0, 1] of \p v (nearest rank).
double percentile(std::vector<double> v, double q);

// --- workloads ---------------------------------------------------------------

/// Build the reference seed store through the CLI several times; returns the
/// median wall time net of steal and leaves the first store at \p seed_dir.
double run_setup(const Context& ctx, const std::string& seed_dir,
                 Outcome& out);

/// End-to-end measurement of one workload against the seed store.
void run_end_to_end(const Context& ctx, Workload w, const std::string& seed_dir,
                    Outcome& out);

/// Traced in-process replay of one workload plus the per-layer kernels;
/// writes Chrome-trace JSON to \p trace_path.
void run_traced(const Context& ctx, Workload w, const std::string& trace_path,
                Outcome& out);

}  // namespace perf_ledger

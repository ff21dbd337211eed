/// \file batch_engine.cpp
/// \brief Lane-width selection and the compiled transient entry points.

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "finser/spice/batch.hpp"
#include "engine_detail.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {

namespace {

/// Explicit set_lane_width() override; 0 = none (fall through to env/auto).
std::atomic<std::size_t> g_lane_override{0};

/// One-shot FINSER_LANES parse, hardened the same way as FINSER_MC_SCALE
/// (core/ser_flow.cpp): tolerate trailing whitespace, diagnose-and-ignore
/// anything else on stderr. Returns 0 for unset/auto/invalid.
std::size_t lanes_from_env_uncached() {
  const char* raw = std::getenv("FINSER_LANES");
  if (raw == nullptr) return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  while (end != nullptr && *end != '\0' &&
         std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  const bool parsed = end != nullptr && end != raw && *end == '\0';
  if (!parsed || !lane_width_valid(static_cast<std::size_t>(v))) {
    std::fprintf(stderr,
                 "finser: ignoring invalid FINSER_LANES=\"%s\" "
                 "(expected 0 = auto, 1, 4 or 8); using auto\n",
                 raw);
    return 0;
  }
  return static_cast<std::size_t>(v);
}

std::size_t lanes_from_env() {
  static const std::size_t cached = lanes_from_env_uncached();
  return cached;
}

}  // namespace

std::size_t lane_width() {
  const std::size_t over = g_lane_override.load(std::memory_order_relaxed);
  if (over != 0) return over;
  const std::size_t env = lanes_from_env();
  if (env != 0) return env;
  return kDefaultLaneWidth;
}

void set_lane_width(std::size_t w) {
  if (!lane_width_valid(w)) {
    throw util::InvalidArgument(
        "set_lane_width: lane width must be 0 (auto), 1, 4 or 8, got " +
        std::to_string(w));
  }
  g_lane_override.store(w, std::memory_order_relaxed);
}

BatchTransientResult run_transient_batch(
    CompiledCircuit& cc, BatchWorkspace& bw,
    const std::vector<std::vector<double>>& x0, const TransientOptions& opt,
    const std::vector<std::string>& probe_nodes) {
  switch (bw.lanes) {
    case 1:
      return detail::run_transient_batch_impl<1>(cc, bw, x0, opt, probe_nodes);
    case 4:
      return detail::run_transient_batch_impl<4>(cc, bw, x0, opt, probe_nodes);
    case 8:
      return detail::run_transient_batch_impl<8>(cc, bw, x0, opt, probe_nodes);
    default:
      throw util::InvalidArgument(
          "run_transient_batch: workspace not configured (lanes must be 1, 4 "
          "or 8; call batch_configure first)");
  }
}

Waveform run_transient_single(CompiledCircuit& cc, BatchWorkspace& bw,
                              const std::vector<double>& x0,
                              const TransientOptions& opt,
                              const std::vector<std::string>& probe_nodes) {
  FINSER_REQUIRE(x0.size() == cc.unknown_count(),
                 "run_transient: x0 size mismatch");
  if (bw.lanes != 1) cc.batch_configure(bw, 1);
  cc.batch_rebind_lane(bw, 0);
  BatchTransientResult res =
      detail::run_transient_batch_impl<1>(cc, bw, {x0}, opt, probe_nodes);
  if (res.failed[0]) throw util::NumericalError(res.errors[0]);
  return std::move(res.waves[0]);
}

}  // namespace finser::spice

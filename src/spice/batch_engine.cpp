/// \file batch_engine.cpp
/// \brief The lane width and the compiled transient entry points.

#include <atomic>
#include <string>
#include <utility>

#include "finser/spice/batch.hpp"
#include "engine_detail.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {

namespace {

/// set_lane_width() override; 0 = none (the build default).
std::atomic<std::size_t> g_lane_override{0};

}  // namespace

std::size_t lane_width() {
  const std::size_t over = g_lane_override.load(std::memory_order_relaxed);
  return over != 0 ? over : kDefaultLaneWidth;
}

void set_lane_width(std::size_t w) {
  if (!lane_width_valid(w)) {
    throw util::InvalidArgument(
        "set_lane_width: lane width must be 0 (build default), 1, 4 or 8, "
        "got " +
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

void run_transient_stream(CompiledCircuit& cc, BatchWorkspace& bw,
                          TransientFeed& feed, const TransientOptions& opt,
                          const std::vector<std::string>& probe_nodes) {
  switch (bw.lanes) {
    case 1:
      detail::run_transient_batch_impl<1>(cc, bw, {}, opt, probe_nodes, &feed);
      return;
    case 4:
      detail::run_transient_batch_impl<4>(cc, bw, {}, opt, probe_nodes, &feed);
      return;
    case 8:
      detail::run_transient_batch_impl<8>(cc, bw, {}, opt, probe_nodes, &feed);
      return;
    default:
      throw util::InvalidArgument(
          "run_transient_stream: workspace not configured (lanes must be 1, "
          "4 or 8; call batch_configure first)");
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

/// \file batch_engine.cpp
/// \brief The lane width and the compiled transient and LU entry points.

#include <algorithm>
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

[[noreturn]] void throw_unconfigured(const char* where) {
  throw util::InvalidArgument(std::string(where) +
                              ": workspace not configured (lanes must be " +
                              lane_width_list() +
                              "; call batch_configure first)");
}

}  // namespace

std::string lane_width_list() {
  std::string s;
  for (std::size_t i = 0; i < kLaneWidths.size(); ++i) {
    if (i > 0) s += i + 1 == kLaneWidths.size() ? " or " : ", ";
    s += std::to_string(kLaneWidths[i]);
  }
  return s;
}

std::size_t lane_width() {
  const std::size_t over = g_lane_override.load(std::memory_order_relaxed);
  return over != 0 ? over : kDefaultLaneWidth;
}

void set_lane_width(std::size_t w) {
  if (!lane_width_valid(w)) {
    throw util::InvalidArgument(
        "set_lane_width: lane width must be 0 (build default), " +
        lane_width_list() + ", got " + std::to_string(w));
  }
  g_lane_override.store(w, std::memory_order_relaxed);
}

std::size_t batch_lu_solve(const CompiledCircuit& cc, BatchWorkspace& bw,
                           const std::uint8_t* active, LaneLu* status) {
  FINSER_REQUIRE(bw.unknowns == cc.unknown_count(),
                 "batch_lu_solve: workspace size mismatch");
  std::size_t divisions = 0;
  const bool ran = detail::visit_width(bw.lanes, [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;
    std::array<std::uint8_t, W> lane_active;
    std::copy(active, active + W, lane_active.begin());
    std::array<LaneLu, W> lane_status;
    divisions = detail::batch_lu_solve<W>(bw, cc.lu_pattern().data(),
                                          bw.unknowns, lane_active,
                                          lane_status);
    std::copy(lane_status.begin(), lane_status.end(), status);
  });
  if (!ran) throw_unconfigured("batch_lu_solve");
  return divisions;
}

BatchTransientResult run_transient_batch(
    CompiledCircuit& cc, BatchWorkspace& bw,
    const std::vector<std::vector<double>>& x0, const TransientOptions& opt,
    const std::vector<std::string>& probe_nodes) {
  BatchTransientResult res;
  const bool ran = detail::visit_width(bw.lanes, [&](auto width) {
    res = detail::run_transient_batch_impl<decltype(width)::value>(
        cc, bw, x0, opt, probe_nodes);
  });
  if (!ran) throw_unconfigured("run_transient_batch");
  return res;
}

void run_transient_stream(CompiledCircuit& cc, BatchWorkspace& bw,
                          TransientFeed& feed, const TransientOptions& opt,
                          const std::vector<std::string>& probe_nodes) {
  const bool ran = detail::visit_width(bw.lanes, [&](auto width) {
    detail::run_transient_batch_impl<decltype(width)::value>(
        cc, bw, {}, opt, probe_nodes, &feed);
  });
  if (!ran) throw_unconfigured("run_transient_stream");
}

Waveform run_transient_single(CompiledCircuit& cc, BatchWorkspace& bw,
                              const std::vector<double>& x0,
                              const TransientOptions& opt,
                              const std::vector<std::string>& probe_nodes) {
  FINSER_REQUIRE(x0.size() == cc.unknown_count(),
                 "run_transient: x0 size mismatch");
  if (!cc.batch_configured(bw, 1)) cc.batch_configure(bw, 1);
  cc.batch_rebind_lane(bw, 0);
  BatchTransientResult res =
      detail::run_transient_batch_impl<1>(cc, bw, {x0}, opt, probe_nodes);
  if (res.failed[0]) throw util::NumericalError(res.errors[0]);
  return std::move(res.waves[0]);
}

}  // namespace finser::spice

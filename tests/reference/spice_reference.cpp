/// \file spice_reference.cpp
/// \brief The interpreted reference engine (see spice_reference.hpp).

#include "spice_reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "engine_detail.hpp"
#include "finser/obs/obs.hpp"
#include "finser/spice/mna.hpp"
#include "finser/util/error.hpp"

namespace finser::spice {

// ---------------------------------------------------------------------------
// DC
// ---------------------------------------------------------------------------

namespace {

/// detail::solve_dc_lanes()'s one-lane system policy over the polymorphic
/// devices: stamps through Device::stamp() into an Mna and factors it with
/// Mna::solve_with_cache.
struct InterpretedDcSystem {
  explicit InterpretedDcSystem(const Circuit& circuit)
      : c(circuit),
        mna(circuit.unknown_count()),
        x(circuit.unknown_count(), 0.0),
        x_new(circuit.unknown_count(), 0.0) {}

  const Circuit& c;
  Mna mna;
  Mna::PivotCache pivot;
  std::vector<double> x;
  std::vector<double> x_new;

  std::size_t node_count() const { return c.node_count(); }
  std::size_t unknown_count() const { return c.unknown_count(); }
  double* iterate() { return x.data(); }

  const double* solve(const std::array<double, 1>& gmin, const double* anchor,
                      const std::array<std::uint8_t, 1>& /*active*/,
                      std::array<std::uint8_t, 1>& ok) {
    StampContext ctx;
    ctx.transient = false;
    ctx.branch_offset = c.node_count();
    ctx.x = &x;
    mna.clear();
    for (const auto& dev : c.devices()) dev->stamp(mna, ctx);
    if (gmin[0] > 0.0) {
      mna.add_gmin(gmin[0], c.node_count());
      for (std::size_t i = 0; i < c.node_count(); ++i) {
        mna.add_rhs(i, gmin[0] * anchor[i]);
      }
    }
    ok[0] = 1;
    try {
      mna.solve_with_cache(pivot, x_new);
    } catch (const util::NumericalError&) {
      ok[0] = 0;
    }
    return x_new.data();
  }
};

}  // namespace

std::vector<double> solve_dc(const Circuit& circuit,
                             const std::vector<double>& initial_guess,
                             const DcOptions& options) {
  SolveWorkspace ws;
  InterpretedDcSystem system(circuit);
  std::uint8_t failed = 0;
  std::string error;
  detail::solve_dc_lanes<1>(system, ws, 1, initial_guess, options, &failed,
                            &error);
  if (failed != 0) throw util::NumericalError(error);
  return system.x;
}

// ---------------------------------------------------------------------------
// Transient
// ---------------------------------------------------------------------------

namespace {

/// Newton solve of one implicit step; returns true on convergence and leaves
/// the converged iterate in \p x.
bool newton_step(const Circuit& c, Mna& mna, Mna::PivotCache& pivot,
                 StampContext& ctx, std::vector<double>& x,
                 std::vector<double>& x_new, const TransientOptions& opt) {
  for (int iter = 0; iter < opt.max_newton; ++iter) {
    FINSER_OBS_COUNT("spice.tran.newton_iters", 1);
    mna.clear();
    ctx.x = &x;
    for (const auto& dev : c.devices()) dev->stamp(mna, ctx);
    try {
      mna.solve_with_cache(pivot, x_new);
    } catch (const util::NumericalError&) {
      return false;  // Singular at this iterate: treat as convergence failure.
    }

    double max_dv = 0.0;
    for (std::size_t i = 0; i < c.node_count(); ++i) {
      max_dv = std::max(max_dv, std::abs(x_new[i] - x[i]));
    }
    const double alpha = max_dv > opt.damping_vmax ? opt.damping_vmax / max_dv : 1.0;

    double max_delta = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double step = alpha * (x_new[i] - x[i]);
      x[i] += step;
      max_delta = std::max(max_delta, std::abs(step));
    }
    if (alpha == 1.0 && max_delta < opt.v_tol) return true;
  }
  return false;
}

}  // namespace

Waveform run_transient(const Circuit& c, const std::vector<double>& x0,
                       const TransientOptions& opt,
                       const std::vector<std::string>& probe_nodes) {
  detail::require_valid_transient(opt, c.node_count());
  FINSER_REQUIRE(x0.size() == c.unknown_count(),
                 "run_transient: x0 size mismatch");

  obs::ScopedSpan run_span("spice.tran.run");
  FINSER_OBS_COUNT("spice.tran.runs", 1);

  // Resolve probes.
  std::vector<std::string> names;
  std::vector<std::size_t> nodes;
  if (probe_nodes.empty()) {
    for (std::size_t i = 0; i < c.node_count(); ++i) {
      names.push_back(c.node_name(i));
      nodes.push_back(i);
    }
  } else {
    for (const std::string& p : probe_nodes) {
      names.push_back(p);
      nodes.push_back(c.find_node(p));
    }
  }
  Waveform wave(std::move(names), std::move(nodes));

  // Hard breakpoints and the latch arming time, from the unclipped edges.
  std::vector<double> breaks;
  for (const auto& dev : c.devices()) {
    dev->add_breakpoints(detail::kNoHorizon, breaks);
  }
  const double arm_time = detail::clamp_breaks_and_arm(breaks, opt.t_end);

  // Initialize device state from the operating point.
  for (const auto& dev : c.devices()) dev->initialize_state(x0);

  std::vector<double> x = x0;
  std::vector<double> x_try;
  std::vector<double> x_new;
  Mna mna(c.unknown_count());
  Mna::PivotCache pivot;
  StampContext ctx;
  ctx.transient = true;
  ctx.method = opt.method;
  ctx.branch_offset = c.node_count();

  wave.append(0.0, x);

  double t = 0.0;
  double dt = opt.dt_initial;
  std::size_t next_break = 0;

  // Retry ladder (see TransientOptions::max_restarts): the effective Newton
  // settings escalate deterministically each time the step size underflows,
  // instead of aborting on the first hard spot.
  TransientOptions eff = opt;
  int restart_level = 0;
  std::uint64_t accepted_steps = 0;

  while (t < opt.t_end - 1e-24) {
    if (opt.latch && t > arm_time &&
        opt.latch->holds(x[opt.latch->node_a], x[opt.latch->node_b])) {
      FINSER_OBS_COUNT("spice.tran.latch_stops", 1);
      break;  // The outcome has latched: nothing left to decide.
    }
    // Clamp the step to land exactly on the next breakpoint.
    while (next_break < breaks.size() && breaks[next_break] <= t + 1e-24) {
      ++next_break;
    }
    bool hit_break = false;
    double step = dt;
    if (next_break < breaks.size() && t + step >= breaks[next_break] - 1e-24) {
      step = breaks[next_break] - t;
      hit_break = true;
    }

    ctx.time = t + step;
    ctx.dt = step;
    x_try = x;  // Start Newton from the previous solution.
    if (newton_step(c, mna, pivot, ctx, x_try, x_new, eff)) {
      // Accept.
      FINSER_OBS_COUNT("spice.tran.steps", 1);
      ++accepted_steps;
      std::swap(x, x_try);
      ctx.x = &x;
      for (const auto& dev : c.devices()) dev->commit(ctx);
      t = ctx.time;
      wave.append(t, x);
      if (hit_break) {
        dt = opt.dt_initial;  // Restart small after a source edge.
        ++next_break;
      } else {
        dt = std::min(dt * opt.grow_factor, opt.dt_max);
      }
    } else {
      // Reject: shrink and retry from the committed state.
      FINSER_OBS_COUNT("spice.tran.rejects", 1);
      dt *= opt.shrink_factor;
      if (dt < opt.dt_min) {
        if (restart_level < opt.max_restarts) {
          // Escalate: more Newton iterations, stronger damping, and a fresh
          // (smaller) starting step for the same failing instant. The state
          // is the last *committed* step, so nothing is replayed.
          ++restart_level;
          FINSER_OBS_COUNT("spice.tran.escalations", 1);
          eff.max_newton *= 2;
          eff.damping_vmax *= 0.5;
          dt = std::max(opt.dt_min,
                        opt.dt_initial * std::pow(0.1, restart_level));
        } else {
          FINSER_OBS_COUNT("spice.tran.failures", 1);
          throw util::NumericalError(
              "run_transient: Newton failed to converge at t = " +
              std::to_string(t) + " after " + std::to_string(restart_level) +
              " escalation(s) (max_newton " + std::to_string(eff.max_newton) +
              ", damping_vmax " + std::to_string(eff.damping_vmax) + ")");
        }
      }
    }
  }
  FINSER_OBS_RECORD("spice.tran.steps_per_run", accepted_steps);
  return wave;
}

}  // namespace finser::spice

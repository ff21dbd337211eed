#pragma once
/// \file stamp_kernels.hpp
/// \brief Shared per-device stamp arithmetic (internal to finser::spice).
///
/// The polymorphic devices (devices.cpp, Device::stamp) stamp through these
/// kernels. The compiled stamps — the fused DC stamp (compiled.cpp) and the
/// lane-batched transient stamp (compiled_batch.cpp) — write raw slots
/// instead of calling Mna::add, so they mirror the kernels term for term;
/// tests/test_spice_compiled.cpp pins the systems byte-identical. Any change
/// to a device's companion model belongs here and there, never in only one
/// place.

#include <cstddef>

#include "finser/spice/circuit.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/finfet.hpp"
#include "finser/spice/mna.hpp"
#include "finser/util/error.hpp"

namespace finser::spice::detail {

/// Two-terminal conductance pattern (resistor, capacitor companion).
inline void stamp_conductance(Mna& mna, std::size_t a, std::size_t b, double g) {
  mna.add(a, a, g);
  mna.add(b, b, g);
  mna.add(a, b, -g);
  mna.add(b, a, -g);
}

/// Capacitor companion conductance for the step in \p ctx.
inline double cap_geq(const StampContext& ctx, double c) {
  const double factor = ctx.method == Integrator::kTrapezoidal ? 2.0 : 1.0;
  return factor * c / ctx.dt;
}

/// Capacitor companion current for the step in \p ctx.
/// BE:   i_n = (C/dt)(v_n − v_{n-1})            => ieq = geq·v_prev
/// TRAP: i_n = (2C/dt)(v_n − v_{n-1}) − i_{n-1} => ieq = geq·v_prev + i_prev
inline double cap_ieq(const StampContext& ctx, double c, double v_prev,
                      double i_prev) {
  const double geq = cap_geq(ctx, c);
  double ieq = geq * v_prev;
  if (ctx.method == Integrator::kTrapezoidal) ieq += i_prev;
  return ieq;
}

/// Capacitor stamp (open circuit in DC).
inline void stamp_capacitor(Mna& mna, const StampContext& ctx, std::size_t a,
                            std::size_t b, double c, double v_prev,
                            double i_prev) {
  if (!ctx.transient) return;
  FINSER_REQUIRE(ctx.dt > 0.0, "Capacitor::stamp: non-positive dt");
  const double geq = cap_geq(ctx, c);
  const double ieq = cap_ieq(ctx, c, v_prev, i_prev);
  stamp_conductance(mna, a, b, geq);
  // Branch current a->b: i = geq·v_ab − ieq; the −ieq part moves to the RHS.
  mna.add_rhs(a, ieq);
  mna.add_rhs(b, -ieq);
}

/// Accepted-step state update of a capacitor's (v_prev, i_prev) history.
inline void commit_capacitor(const StampContext& ctx, double c, std::size_t a,
                             std::size_t b, double& v_prev, double& i_prev) {
  if (!ctx.transient) return;
  const double v_now = ctx.v(a) - ctx.v(b);
  const double geq = cap_geq(ctx, c);
  double i_now = geq * (v_now - v_prev);
  if (ctx.method == Integrator::kTrapezoidal) i_now -= i_prev;
  v_prev = v_now;
  i_prev = i_now;
}

/// Ideal voltage source with branch unknown \p branch_id and value \p volts.
inline void stamp_vsource(Mna& mna, const StampContext& ctx, std::size_t a,
                          std::size_t b, std::size_t branch_id, double volts) {
  const std::size_t k = ctx.branch_index(branch_id);
  // Branch current flows from + (a) through the source to − (b).
  mna.add(a, k, 1.0);
  mna.add(b, k, -1.0);
  mna.add(k, a, 1.0);
  mna.add(k, b, -1.0);
  mna.add_rhs(k, volts);
}

/// Independent current source pushing \p shape current from \p from to \p to.
inline void stamp_isource(Mna& mna, const StampContext& ctx, std::size_t from,
                          std::size_t to, const PulseShape& shape) {
  if (!ctx.transient) return;
  const double i = shape.value(ctx.time);
  if (i == 0.0) return;
  // Current leaves `from` and enters `to`.
  mna.add_rhs(from, -i);
  mna.add_rhs(to, i);
}

/// Hard time points of a pulse: leading/trailing edge, plus the apex of a
/// triangular pulse (where dI/dt flips sign).
inline void pulse_breakpoints(const PulseShape& shape, double t_end,
                              std::vector<double>& out) {
  const double t0 = shape.delay_s;
  const double t1 = shape.delay_s + shape.width_s;
  if (t0 > 0.0 && t0 < t_end) out.push_back(t0);
  if (t1 > 0.0 && t1 < t_end) out.push_back(t1);
  if (shape.kind == PulseShape::Kind::kTriangular) {
    const double tm = shape.delay_s + 0.5 * shape.width_s;
    if (tm > 0.0 && tm < t_end) out.push_back(tm);
  }
}

/// Linearized FinFET companion model at the iterate in \p ctx.
inline void stamp_mosfet(Mna& mna, const StampContext& ctx, std::size_t d,
                         std::size_t g, std::size_t s, const FinFetModel& model,
                         double nfin, double delta_vt, double temp_k) {
  const double vd = ctx.v(d);
  const double vg = ctx.v(g);
  const double vs = ctx.v(s);
  const MosOp op = evaluate_finfet(model, vd, vg, vs, delta_vt, nfin, temp_k);

  // Linearized drain current: i_d ≈ gds·vds + gm·vgs + ieq.
  const double ieq = op.ids - op.gm * (vg - vs) - op.gds * (vd - vs);

  mna.add(d, d, op.gds);
  mna.add(d, g, op.gm);
  mna.add(d, s, -(op.gds + op.gm));
  mna.add_rhs(d, -ieq);

  mna.add(s, d, -op.gds);
  mna.add(s, g, -op.gm);
  mna.add(s, s, op.gds + op.gm);
  mna.add_rhs(s, ieq);
}

}  // namespace finser::spice::detail

#include "finser/spice/devices.hpp"

#include <algorithm>
#include <cmath>

#include "finser/util/error.hpp"
#include "stamp_kernels.hpp"

namespace finser::spice {

// ---------------------------------------------------------------------------
// Resistor
// ---------------------------------------------------------------------------

Resistor::Resistor(std::size_t a, std::size_t b, double ohms) : a_(a), b_(b) {
  FINSER_REQUIRE(ohms > 0.0, "Resistor: resistance must be positive");
  g_ = 1.0 / ohms;
}

void Resistor::stamp(Mna& mna, const StampContext& /*ctx*/) const {
  detail::stamp_conductance(mna, a_, b_, g_);
}

// ---------------------------------------------------------------------------
// Capacitor
// ---------------------------------------------------------------------------

Capacitor::Capacitor(std::size_t a, std::size_t b, double farads)
    : a_(a), b_(b), c_(farads) {
  FINSER_REQUIRE(farads > 0.0, "Capacitor: capacitance must be positive");
}

double Capacitor::companion_geq(const StampContext& ctx) const {
  return detail::cap_geq(ctx, c_);
}

double Capacitor::companion_ieq(const StampContext& ctx) const {
  return detail::cap_ieq(ctx, c_, v_prev_, i_prev_);
}

void Capacitor::stamp(Mna& mna, const StampContext& ctx) const {
  detail::stamp_capacitor(mna, ctx, a_, b_, c_, v_prev_, i_prev_);
}

void Capacitor::initialize_state(const std::vector<double>& x) {
  const double va = a_ == kGround ? 0.0 : x[a_];
  const double vb = b_ == kGround ? 0.0 : x[b_];
  v_prev_ = va - vb;
  i_prev_ = 0.0;  // DC steady state: no capacitor current.
}

void Capacitor::commit(const StampContext& ctx) {
  detail::commit_capacitor(ctx, c_, a_, b_, v_prev_, i_prev_);
}

// ---------------------------------------------------------------------------
// VSource
// ---------------------------------------------------------------------------

VSource::VSource(Circuit& circuit, std::size_t a, std::size_t b, double volts)
    : a_(a), b_(b), branch_(circuit.alloc_branch()), v_(volts) {}

void VSource::stamp(Mna& mna, const StampContext& ctx) const {
  detail::stamp_vsource(mna, ctx, a_, b_, branch_, v_);
}

// ---------------------------------------------------------------------------
// PwlVSource
// ---------------------------------------------------------------------------

PwlVSource::PwlVSource(Circuit& circuit, std::size_t a, std::size_t b,
                       std::vector<std::pair<double, double>> points)
    : a_(a), b_(b), branch_(circuit.alloc_branch()), points_(std::move(points)) {
  FINSER_REQUIRE(!points_.empty(), "PwlVSource: empty waveform");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    FINSER_REQUIRE(points_[i].first > points_[i - 1].first,
                   "PwlVSource: time points must be strictly increasing");
  }
}

double PwlVSource::value(double t) const {
  if (t <= points_.front().first) return points_.front().second;
  if (t >= points_.back().first) return points_.back().second;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (t <= points_[i].first) {
      const auto& [t0, v0] = points_[i - 1];
      const auto& [t1, v1] = points_[i];
      return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
    }
  }
  return points_.back().second;
}

void PwlVSource::stamp(Mna& mna, const StampContext& ctx) const {
  detail::stamp_vsource(mna, ctx, a_, b_, branch_,
                        value(ctx.transient ? ctx.time : 0.0));
}

void PwlVSource::add_breakpoints(double t_end, std::vector<double>& out) const {
  for (const auto& [t, v] : points_) {
    (void)v;
    if (t > 0.0 && t < t_end) out.push_back(t);
  }
}

// ---------------------------------------------------------------------------
// PulseShape / PulseISource
// ---------------------------------------------------------------------------

double PulseShape::value(double t) const {
  if (width_s <= 0.0 || amplitude_a == 0.0) return 0.0;
  const double rel = t - delay_s;
  // Half-open at the start, closed at the end: an implicit integrator
  // evaluates sources at the *end* of each step, so the step that lands
  // exactly on the trailing-edge breakpoint must still see the pulse —
  // otherwise the final step's charge is silently dropped. The edge
  // tolerance absorbs the rounding of (delay + width) when delay >> width.
  const double edge_tol = 1e-9 * (std::abs(delay_s) + width_s);
  if (rel <= 0.0 || rel > width_s + edge_tol) return 0.0;
  switch (kind) {
    case Kind::kRectangular:
      return amplitude_a;
    case Kind::kTriangular: {
      const double half = 0.5 * width_s;
      const double frac = rel < half ? rel / half : (width_s - rel) / half;
      return amplitude_a * frac;
    }
  }
  return 0.0;
}

double PulseShape::charge_c() const {
  switch (kind) {
    case Kind::kRectangular:
      return amplitude_a * width_s;
    case Kind::kTriangular:
      return 0.5 * amplitude_a * width_s;
  }
  return 0.0;
}

PulseShape PulseShape::rectangular_for_charge(double charge_c, double width_s,
                                              double delay_s) {
  FINSER_REQUIRE(width_s > 0.0, "PulseShape: width must be positive");
  return PulseShape{Kind::kRectangular, delay_s, width_s, charge_c / width_s};
}

PulseShape PulseShape::triangular_for_charge(double charge_c, double width_s,
                                             double delay_s) {
  FINSER_REQUIRE(width_s > 0.0, "PulseShape: width must be positive");
  return PulseShape{Kind::kTriangular, delay_s, width_s, 2.0 * charge_c / width_s};
}

PulseISource::PulseISource(std::size_t from, std::size_t to, const PulseShape& shape)
    : from_(from), to_(to), shape_(shape) {}

void PulseISource::stamp(Mna& mna, const StampContext& ctx) const {
  detail::stamp_isource(mna, ctx, from_, to_, shape_);
}

void PulseISource::add_breakpoints(double t_end, std::vector<double>& out) const {
  detail::pulse_breakpoints(shape_, t_end, out);
}

// ---------------------------------------------------------------------------
// Mosfet
// ---------------------------------------------------------------------------

Mosfet::Mosfet(std::size_t d, std::size_t g, std::size_t s, const FinFetModel& model,
               double nfin)
    : d_(d), g_(g), s_(s), model_(&model), nfin_(nfin) {
  FINSER_REQUIRE(nfin > 0.0, "Mosfet: nfin must be positive");
}

MosOp Mosfet::op_at(const std::vector<double>& x) const {
  const auto v = [&x](std::size_t n) { return n == kGround ? 0.0 : x[n]; };
  return evaluate_finfet(*model_, v(d_), v(g_), v(s_), delta_vt_, nfin_, temp_k_);
}

void Mosfet::stamp(Mna& mna, const StampContext& ctx) const {
  detail::stamp_mosfet(mna, ctx, d_, g_, s_, *model_, nfin_, delta_vt_, temp_k_);
}

}  // namespace finser::spice

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/transient.hpp"
#include "finser/util/error.hpp"
#include "spice_reference.hpp"

namespace finser::spice {
namespace {

// ---------------------------------------------------------------------------
// DC analysis
// ---------------------------------------------------------------------------

TEST(Dc, VoltageDivider) {
  Circuit c;
  const auto vin = c.node("in");
  const auto mid = c.node("mid");
  c.add<VSource>(c, vin, kGround, 9.0);
  c.add<Resistor>(vin, mid, 2e3);
  c.add<Resistor>(mid, kGround, 1e3);
  const auto x = solve_dc(c);
  // Tolerance covers the residual 1e-12 S gmin shunt of the final stage.
  EXPECT_NEAR(x[mid], 3.0, 1e-7);
  EXPECT_NEAR(x[vin], 9.0, 1e-9);
}

TEST(Dc, VsourceBranchCurrent) {
  Circuit c;
  const auto vin = c.node("in");
  auto& src = c.add<VSource>(c, vin, kGround, 10.0);
  c.add<Resistor>(vin, kGround, 5.0);
  const auto x = solve_dc(c);
  // Branch current flows from + through the source: -2 A (source delivers).
  EXPECT_NEAR(x[c.node_count() + src.branch_id()], -2.0, 1e-9);
}

TEST(Dc, CapacitorIsOpenInDc) {
  Circuit c;
  const auto vin = c.node("in");
  const auto mid = c.node("mid");
  c.add<VSource>(c, vin, kGround, 5.0);
  c.add<Resistor>(vin, mid, 1e3);
  c.add<Capacitor>(mid, kGround, 1e-12);
  // gmin makes this solvable; mid floats to the source voltage.
  const auto x = solve_dc(c);
  EXPECT_NEAR(x[mid], 5.0, 1e-6);
}

TEST(Dc, InverterVtcMonotoneWithGain) {
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add<VSource>(c, vdd, kGround, 0.8);
  auto& vin = c.add<VSource>(c, in, kGround, 0.0);
  c.add<Mosfet>(out, in, kGround, default_nfet(), 1.0);
  c.add<Mosfet>(out, in, vdd, default_pfet(), 1.0);

  std::vector<double> x;
  double prev = 0.9;
  double max_gain = 0.0;
  double prev_out = 0.8;
  for (double vi = 0.0; vi <= 0.8001; vi += 0.02) {
    vin.set_voltage(vi);
    x = solve_dc(c, x);
    EXPECT_LE(x[out], prev + 1e-7) << "VTC not monotone at " << vi;
    if (vi > 0.0) max_gain = std::max(max_gain, (prev_out - x[out]) / 0.02);
    prev = x[out];
    prev_out = x[out];
  }
  EXPECT_GT(max_gain, 2.0);       // Regenerative.
  EXPECT_LT(prev, 0.05);          // Full swing.
}

TEST(Dc, SramBistability) {
  // The same netlist converges to either stable state depending on the
  // initial guess — and to the metastable point from a symmetric guess.
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto q = c.node("q");
  const auto qb = c.node("qb");
  c.add<VSource>(c, vdd, kGround, 0.8);
  c.add<Mosfet>(q, qb, kGround, default_nfet(), 1.0);
  c.add<Mosfet>(q, qb, vdd, default_pfet(), 1.0);
  c.add<Mosfet>(qb, q, kGround, default_nfet(), 1.0);
  c.add<Mosfet>(qb, q, vdd, default_pfet(), 1.0);

  std::vector<double> guess(c.unknown_count(), 0.0);
  guess[vdd] = 0.8;
  guess[q] = 0.8;
  auto x1 = solve_dc(c, guess);
  EXPECT_GT(x1[q], 0.75);
  EXPECT_LT(x1[qb], 0.05);

  guess[q] = 0.0;
  guess[qb] = 0.8;
  auto x0 = solve_dc(c, guess);
  EXPECT_LT(x0[q], 0.05);
  EXPECT_GT(x0[qb], 0.75);
}

TEST(Dc, BadArgumentsThrow) {
  Circuit c;
  c.node("a");
  c.add<Resistor>(c.find_node("a"), kGround, 1.0);
  EXPECT_THROW(solve_dc(c, std::vector<double>(99, 0.0)), util::InvalidArgument);
  DcOptions opt;
  opt.gmin_steps.clear();
  EXPECT_THROW(solve_dc(c, {}, opt), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Transient analysis
// ---------------------------------------------------------------------------

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // Charge a 1 pF cap through 1 kΩ from a current source step: the cap is
  // pre-discharged (DC with source off), then a long rectangular current
  // pulse drives it: v(t) = I*R_th... use simpler exact form:
  // I into C parallel R: v(t) = I*R*(1 - exp(-t/RC)).
  Circuit c;
  const auto n = c.node("n");
  c.add<Resistor>(n, kGround, 1e3);
  c.add<Capacitor>(n, kGround, 1e-12);
  const double i0 = 1e-3;
  c.add<PulseISource>(kGround, n,
                      PulseShape{PulseShape::Kind::kRectangular, 0.0, 1.0, i0});
  const auto x0 = solve_dc(c);

  TransientOptions opt;
  opt.t_end = 3e-9;  // 3 time constants.
  opt.dt_max = 1e-11;
  opt.method = Integrator::kTrapezoidal;
  const auto w = run_transient(c, x0, opt, {"n"});
  const double rc = 1e3 * 1e-12;
  for (double t : {0.5e-9, 1e-9, 2e-9, 3e-9}) {
    const double expected = i0 * 1e3 * (1.0 - std::exp(-t / rc));
    EXPECT_NEAR(w.at(0, t), expected, 0.01 * i0 * 1e3) << t;
  }
}

TEST(Transient, BackwardEulerAgreesWithTrapezoidal) {
  for (auto method : {Integrator::kBackwardEuler, Integrator::kTrapezoidal}) {
    Circuit c;
    const auto n = c.node("n");
    c.add<Resistor>(n, kGround, 1e3);
    c.add<Capacitor>(n, kGround, 1e-12);
    c.add<PulseISource>(kGround, n,
                        PulseShape{PulseShape::Kind::kRectangular, 0.0, 1.0, 1e-3});
    const auto x0 = solve_dc(c);
    TransientOptions opt;
    opt.t_end = 2e-9;
    opt.dt_max = 5e-12;
    opt.method = method;
    const auto w = run_transient(c, x0, opt, {"n"});
    const double rc = 1e-9;
    const double expected = 1.0 * (1.0 - std::exp(-2e-9 / rc));
    EXPECT_NEAR(w.final_value(0), expected, 0.02);
  }
}

TEST(Transient, ChargeConservationOnPulse) {
  // A pulse into an isolated capacitor raises its voltage by Q/C exactly.
  Circuit c;
  const auto n = c.node("n");
  c.add<Capacitor>(n, kGround, 1e-15);
  const double q = 0.1e-15;  // 0.1 fC -> 0.1 V on 1 fF.
  c.add<PulseISource>(kGround, n,
                      PulseShape::rectangular_for_charge(q, 1e-14, 1e-12));
  // DC: gmin resolves the floating node to 0 V.
  const auto x0 = solve_dc(c);
  TransientOptions opt;
  opt.t_end = 10e-12;
  const auto w = run_transient(c, x0, opt, {"n"});
  EXPECT_NEAR(w.final_value(0), 0.1, 1e-3);
}

TEST(Transient, TriangularPulseDeliversSameCharge) {
  for (auto kind : {PulseShape::Kind::kRectangular, PulseShape::Kind::kTriangular}) {
    Circuit c;
    const auto n = c.node("n");
    c.add<Capacitor>(n, kGround, 1e-15);
    const double q = 0.05e-15;
    const PulseShape shape =
        kind == PulseShape::Kind::kRectangular
            ? PulseShape::rectangular_for_charge(q, 1e-14, 1e-12)
            : PulseShape::triangular_for_charge(q, 1e-14, 1e-12);
    c.add<PulseISource>(kGround, n, shape);
    const auto x0 = solve_dc(c);
    TransientOptions opt;
    opt.t_end = 10e-12;
    const auto w = run_transient(c, x0, opt, {"n"});
    EXPECT_NEAR(w.final_value(0), 0.05, 2e-3);
  }
}

TEST(Transient, WaveformProbesAndInterpolation) {
  Circuit c;
  const auto a = c.node("a");
  const auto b = c.node("b");
  c.add<VSource>(c, a, kGround, 2.0);
  c.add<Resistor>(a, b, 1e3);
  c.add<Resistor>(b, kGround, 1e3);
  const auto x0 = solve_dc(c);
  TransientOptions opt;
  opt.t_end = 1e-12;
  const auto w = run_transient(c, x0, opt, {"b", "a"});
  EXPECT_EQ(w.probe_count(), 2u);
  EXPECT_EQ(w.probe("a"), 1u);
  EXPECT_THROW(w.probe("zzz"), util::InvalidArgument);
  EXPECT_NEAR(w.at(0, 0.5e-12), 1.0, 1e-9);
  EXPECT_NEAR(w.min_value(1), 2.0, 1e-9);
  EXPECT_NEAR(w.max_value(1), 2.0, 1e-9);
  EXPECT_GT(w.sample_count(), 2u);
  EXPECT_EQ(w.times().front(), 0.0);
}

TEST(Transient, DefaultProbesAllNodes) {
  Circuit c;
  c.add<VSource>(c, c.node("x"), kGround, 1.0);
  c.add<Resistor>(c.node("x"), c.node("y"), 1.0);
  c.add<Resistor>(c.node("y"), kGround, 1.0);
  const auto x0 = solve_dc(c);
  TransientOptions opt;
  opt.t_end = 1e-12;
  const auto w = run_transient(c, x0, opt);
  EXPECT_EQ(w.probe_count(), 2u);
}

TEST(Transient, RejectsBadOptions) {
  Circuit c;
  c.add<VSource>(c, c.node("x"), kGround, 1.0);
  c.add<Resistor>(c.node("x"), kGround, 1.0);
  const auto x0 = solve_dc(c);
  TransientOptions opt;  // t_end defaults to 0.
  EXPECT_THROW(run_transient(c, x0, opt), util::InvalidArgument);
  opt.t_end = 1e-12;
  EXPECT_THROW(run_transient(c, std::vector<double>(1, 0.0), opt),
               util::InvalidArgument);
}

TEST(Transient, WaveformCsvExport) {
  Circuit c;
  const auto a = c.node("a");
  c.add<VSource>(c, a, kGround, 1.5);
  c.add<Resistor>(a, c.node("b"), 1e3);
  c.add<Resistor>(c.node("b"), kGround, 1e3);
  const auto x0 = solve_dc(c);
  TransientOptions opt;
  opt.t_end = 1e-12;
  const auto w = run_transient(c, x0, opt, {"a", "b"});
  std::ostringstream os;
  w.write_csv(os);
  const std::string out = os.str();
  EXPECT_EQ(out.substr(0, 11), "time_s,a,b\n");
  // First sample row: t = 0, a = 1.5, b = 0.75.
  EXPECT_NE(out.find("0,1.5,0.75"), std::string::npos);
  // One line per sample plus the header.
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            w.sample_count() + 1);
}

TEST(Dc, VsourceSetVoltageTakesEffect) {
  Circuit c;
  const auto a = c.node("a");
  auto& src = c.add<VSource>(c, a, kGround, 1.0);
  c.add<Resistor>(a, kGround, 1e3);
  EXPECT_NEAR(solve_dc(c)[a], 1.0, 1e-9);
  src.set_voltage(2.5);
  EXPECT_DOUBLE_EQ(src.voltage(), 2.5);
  EXPECT_NEAR(solve_dc(c)[a], 2.5, 1e-9);
}

TEST(Dc, MosfetOpAtReportsOperatingPoint) {
  Circuit c;
  const auto vdd = c.node("vdd");
  const auto out = c.node("out");
  c.add<VSource>(c, vdd, kGround, 0.8);
  auto& nmos = c.add<Mosfet>(out, vdd, kGround, default_nfet(), 2.0);
  c.add<Resistor>(vdd, out, 5e3);
  EXPECT_DOUBLE_EQ(nmos.nfin(), 2.0);
  EXPECT_EQ(nmos.drain(), out);
  EXPECT_EQ(nmos.gate(), vdd);
  EXPECT_EQ(nmos.source(), kGround);
  const auto x = solve_dc(c);
  const auto op = nmos.op_at(x);
  // KCL at `out`: the resistor current equals the drain current.
  EXPECT_NEAR(op.ids, (0.8 - x[out]) / 5e3, 1e-9);
  EXPECT_GT(op.gm, 0.0);
}

// ---------------------------------------------------------------------------
// PWL voltage source
// ---------------------------------------------------------------------------

TEST(Pwl, WaveformValueClampsAndInterpolates) {
  Circuit c;
  const auto n = c.node("n");
  auto& src = c.add<PwlVSource>(
      c, n, kGround,
      std::vector<std::pair<double, double>>{{1e-9, 0.0}, {2e-9, 1.0},
                                             {3e-9, 0.25}});
  EXPECT_DOUBLE_EQ(src.value(0.0), 0.0);        // Clamped before.
  EXPECT_DOUBLE_EQ(src.value(1.5e-9), 0.5);     // Rising ramp.
  EXPECT_DOUBLE_EQ(src.value(2.5e-9), 0.625);   // Falling ramp.
  EXPECT_DOUBLE_EQ(src.value(10e-9), 0.25);     // Clamped after.
}

TEST(Pwl, RejectsBadWaveforms) {
  Circuit c;
  const auto n = c.node("n");
  EXPECT_THROW(c.add<PwlVSource>(c, n, kGround,
                                 std::vector<std::pair<double, double>>{}),
               util::InvalidArgument);
  EXPECT_THROW(
      c.add<PwlVSource>(c, n, kGround,
                        std::vector<std::pair<double, double>>{{1e-9, 0.0},
                                                               {1e-9, 1.0}}),
      util::InvalidArgument);
}

TEST(Pwl, DcUsesTimeZeroValue) {
  Circuit c;
  const auto n = c.node("n");
  c.add<PwlVSource>(c, n, kGround,
                    std::vector<std::pair<double, double>>{{0.0, 0.7},
                                                           {1e-9, 0.0}});
  c.add<Resistor>(n, kGround, 1e3);
  const auto x = solve_dc(c);
  EXPECT_NEAR(x[n], 0.7, 1e-9);
}

TEST(Pwl, DrivesRcThroughRamp) {
  // Slow ramp (>> RC): the cap tracks the source closely; check endpoints.
  Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add<PwlVSource>(c, in, kGround,
                    std::vector<std::pair<double, double>>{
                        {0.0, 0.0}, {10e-9, 1.0}, {20e-9, 1.0}});
  c.add<Resistor>(in, out, 1e3);
  c.add<Capacitor>(out, kGround, 1e-13);  // RC = 0.1 ns << 10 ns ramp.
  const auto x0 = solve_dc(c);
  TransientOptions opt;
  opt.t_end = 20e-9;
  opt.dt_max = 5e-11;
  const auto w = run_transient(c, x0, opt, {"out"});
  EXPECT_NEAR(w.at(0, 5e-9), 0.5, 0.03);   // Mid-ramp (small RC lag).
  EXPECT_NEAR(w.final_value(0), 1.0, 1e-3);  // Settled.
}

TEST(Transient, BreakpointsAreHitExactly) {
  Circuit c;
  const auto n = c.node("n");
  c.add<Capacitor>(n, kGround, 1e-15);
  c.add<PulseISource>(kGround, n,
                      PulseShape::rectangular_for_charge(0.1e-15, 1e-14, 5e-12));
  const auto x0 = solve_dc(c);
  TransientOptions opt;
  opt.t_end = 20e-12;
  const auto w = run_transient(c, x0, opt, {"n"});
  // Voltage must be (near) zero right up to the pulse start.
  EXPECT_NEAR(w.at(0, 4.9e-12), 0.0, 1e-6);
  // And fully developed right after the pulse end.
  EXPECT_NEAR(w.at(0, 5.2e-12), 0.1, 2e-3);
}


// ---------------------------------------------------------------------------
// Integrator convergence order
// ---------------------------------------------------------------------------

/// Max |simulated - analytic| of an R-C low-pass driven by a voltage ramp,
/// integrated with uniform steps of size \p h. The ramp response has the
/// closed form  v_c(t) = m*(t - RC*(1 - e^{-t/RC})), and the circuit is
/// linear, so Newton solves every step exactly in one iteration and the
/// measured error is purely the integrator's truncation error.
double ramp_rc_error(Integrator method, double h) {
  constexpr double kR = 1e3;     // [ohm]
  constexpr double kC = 1e-15;   // [F] -> RC = 1 ps.
  constexpr double kSlope = 1.0 / 1e-9;  // 1 V over 1 ns.
  Circuit c;
  const auto n_in = c.node("in");
  const auto n_out = c.node("out");
  c.add<PwlVSource>(c, n_in, kGround,
                    std::vector<std::pair<double, double>>{{0.0, 0.0},
                                                           {1e-9, 1.0}});
  c.add<Resistor>(n_in, n_out, kR);
  c.add<Capacitor>(n_out, kGround, kC);
  const auto x0 = solve_dc(c);

  TransientOptions opt;
  opt.t_end = 4e-12;  // 4 RC: the exponential transient dominates throughout.
  opt.dt_initial = h;
  opt.dt_max = h;
  opt.grow_factor = 1.0;  // Uniform steps: error halving is attributable to h.
  opt.method = method;
  const Waveform w = run_transient(c, x0, opt, {"out"});

  constexpr double kRc = kR * kC;
  double worst = 0.0;
  for (std::size_t i = 0; i < w.sample_count(); ++i) {
    const double t = w.times()[i];
    const double exact = kSlope * (t - kRc * (1.0 - std::exp(-t / kRc)));
    worst = std::max(worst, std::abs(w.value(0, i) - exact));
  }
  return worst;
}

TEST(Transient, BackwardEulerConvergesFirstOrder) {
  const double e0 = ramp_rc_error(Integrator::kBackwardEuler, 4e-13);
  const double e1 = ramp_rc_error(Integrator::kBackwardEuler, 2e-13);
  const double e2 = ramp_rc_error(Integrator::kBackwardEuler, 1e-13);
  ASSERT_GT(e0, e1);
  ASSERT_GT(e1, e2);
  const double p01 = std::log2(e0 / e1);
  const double p12 = std::log2(e1 / e2);
  // Global error ~ O(h): halving h should halve the error.
  EXPECT_GT(p01, 0.7) << "e0 = " << e0 << ", e1 = " << e1;
  EXPECT_LT(p01, 1.35);
  EXPECT_GT(p12, 0.7) << "e1 = " << e1 << ", e2 = " << e2;
  EXPECT_LT(p12, 1.35);
}

TEST(Transient, TrapezoidalConvergesSecondOrder) {
  const double e0 = ramp_rc_error(Integrator::kTrapezoidal, 4e-13);
  const double e1 = ramp_rc_error(Integrator::kTrapezoidal, 2e-13);
  const double e2 = ramp_rc_error(Integrator::kTrapezoidal, 1e-13);
  ASSERT_GT(e0, e1);
  ASSERT_GT(e1, e2);
  const double p01 = std::log2(e0 / e1);
  const double p12 = std::log2(e1 / e2);
  // Global error ~ O(h^2): halving h should quarter the error.
  EXPECT_GT(p01, 1.6) << "e0 = " << e0 << ", e1 = " << e1;
  EXPECT_LT(p01, 2.4);
  EXPECT_GT(p12, 1.6) << "e1 = " << e1 << ", e2 = " << e2;
  EXPECT_LT(p12, 2.4);
  // And the 2nd-order method must actually beat backward Euler at equal h.
  EXPECT_LT(e2, ramp_rc_error(Integrator::kBackwardEuler, 1e-13));
}

}  // namespace
}  // namespace finser::spice

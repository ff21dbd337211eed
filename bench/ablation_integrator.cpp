/// \file ablation_integrator.cpp
/// \brief Numerical-methods ablation of the SPICE substrate: does the
/// critical charge depend on the integrator (backward Euler vs trapezoidal)
/// or the maximum step size? It must not — the flip decision is set by
/// charge conservation, not step-local accuracy — and this bench documents
/// the margin, validating the solver settings baked into StrikeSimulator.
/// Micro-benchmarks: transient cost per integrator.

#include "bench_common.hpp"
#include "finser/spice/dc.hpp"
#include "finser/sram/characterize.hpp"

namespace {

using namespace finser;

/// Qcrit with explicit transient controls (bypasses StrikeSimulator's
/// defaults by building the cell circuit itself — also a public-API workout:
/// compile once, then every bisection step is a pulse rebind).
double qcrit_with(spice::Integrator method, double dt_max_s) {
  const double vdd = 0.8;
  const sram::CellDesign design;

  spice::Circuit c;
  const auto q = c.node("q"), qb = c.node("qb"), nvdd = c.node("vdd");
  const auto bl = c.node("bl"), blb = c.node("blb"), wl = c.node("wl");
  c.add<spice::VSource>(c, nvdd, spice::kGround, vdd);
  c.add<spice::VSource>(c, bl, spice::kGround, vdd);
  c.add<spice::VSource>(c, blb, spice::kGround, vdd);
  c.add<spice::VSource>(c, wl, spice::kGround, 0.0);
  c.add<spice::Mosfet>(q, qb, spice::kGround, spice::default_nfet());
  c.add<spice::Mosfet>(q, qb, nvdd, spice::default_pfet());
  c.add<spice::Mosfet>(qb, q, spice::kGround, spice::default_nfet());
  c.add<spice::Mosfet>(qb, q, nvdd, spice::default_pfet());
  c.add<spice::Mosfet>(bl, wl, q, spice::default_nfet());
  c.add<spice::Mosfet>(blb, wl, qb, spice::default_nfet());
  c.add<spice::Capacitor>(q, spice::kGround, design.cnode_f);
  c.add<spice::Capacitor>(qb, spice::kGround, design.cnode_f);
  auto& strike = c.add<spice::PulseISource>(q, spice::kGround,
                                            spice::PulseShape{});
  const double tau_s = phys::transit_time_fs(design.tech, vdd) * 1e-15;
  std::vector<double> guess(c.unknown_count(), 0.0);
  guess[q] = vdd;
  guess[nvdd] = vdd;
  guess[bl] = vdd;
  guess[blb] = vdd;
  spice::TransientOptions opt;
  opt.t_end = 50e-12;
  opt.dt_max = dt_max_s;
  opt.method = method;

  spice::CompiledCircuit cc(c);
  spice::SolveWorkspace ws;
  spice::BatchWorkspace bw;
  auto flips = [&](double q_fc) {
    strike.set_shape(
        spice::PulseShape::rectangular_for_charge(q_fc * 1e-15, tau_s, 1e-12));
    cc.rebind();
    const auto x0 = spice::solve_dc(cc, ws, guess);
    const auto w = spice::run_transient_single(cc, bw, x0, opt, {"q", "qb"});
    return w.final_value(0) < 0.5 * vdd && w.final_value(1) > 0.5 * vdd;
  };

  double lo = 0.0, hi = 0.6;
  for (int i = 0; i < 18; ++i) {
    const double mid = 0.5 * (lo + hi);
    (flips(mid) ? hi : lo) = mid;
  }
  return hi;
}

void report() {
  const double ref = qcrit_with(spice::Integrator::kBackwardEuler, 1e-12);
  util::CsvTable t({"integrator", "dt_max_ps", "qcrit_fc", "vs_ref_pct"});
  for (auto [name, method] :
       {std::pair{"backward-euler", spice::Integrator::kBackwardEuler},
        std::pair{"trapezoidal", spice::Integrator::kTrapezoidal}}) {
    for (double dt_ps : {0.1, 1.0, 5.0}) {
      const double q = qcrit_with(method, dt_ps * 1e-12);
      t.add_row({std::string(name), dt_ps, q, 100.0 * (q - ref) / ref});
    }
  }
  bench::emit(t, "ablation_integrator",
              "Solver ablation: Qcrit vs integrator and max step (0.8 V)");
}

void bm_transient_be(benchmark::State& state) {
  sram::StrikeSimulator sim(sram::CellDesign{}, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(sram::StrikeCharges{0.13, 0, 0}));
  }
}
BENCHMARK(bm_transient_be)->Unit(benchmark::kMicrosecond);

}  // namespace

FINSER_BENCH_MAIN(report)

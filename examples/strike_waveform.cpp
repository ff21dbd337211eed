/// \file strike_waveform.cpp
/// \brief A look inside the circuit level: the storage-node waveforms of a
/// sub-critical (recovered) and a super-critical (flipped) particle strike.
///
/// Writes plot-ready CSVs and prints an ASCII sketch — the femtosecond
/// charge dump, the nanosecond-scale regenerative decision, and why the
/// paper's "only the pulse charge matters" observation holds: by the time
/// the cross-coupled pair reacts, the pulse is long gone.

#include <cstdio>
#include <fstream>

#include "finser/spice/dc.hpp"
#include "finser/sram/cell.hpp"
#include "finser/sram/characterize.hpp"

namespace {

using namespace finser;

/// Render one probe as a rough ASCII strip chart.
void sketch(const spice::Waveform& w, std::size_t probe, double vdd,
            const char* label) {
  std::printf("  %-3s ", label);
  const double t_end = w.times().back();
  for (int col = 0; col < 64; ++col) {
    const double t = t_end * col / 63.0;
    const double v = w.at(probe, t);
    const char* glyph = v > 0.8 * vdd   ? "#"
                        : v > 0.6 * vdd ? "+"
                        : v > 0.4 * vdd ? "-"
                        : v > 0.2 * vdd ? "."
                                        : " ";
    std::printf("%s", glyph);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using sram::CellDesign;
  using sram::StrikeCharges;

  const double vdd = 0.8;
  sram::StrikeSimulator sim(CellDesign{}, vdd);

  // Find the critical charge, then show strikes at 0.9x and 1.1x of it.
  const double qcrit = sram::bisect_critical_scale(
      sim, StrikeCharges{1, 0, 0}, sram::DeltaVt{}, 0.6, 1e-4,
      spice::PulseShape::Kind::kRectangular);
  std::printf("6T cell @ %.1f V, critical charge %.4f fC\n\n", vdd, qcrit);

  // Re-run the two strikes with direct SPICE calls so we keep the waveforms.
  for (double scale : {0.9, 1.1}) {
    sram::StrikeSimulator fresh(CellDesign{}, vdd);
    const auto outcome =
        fresh.simulate(StrikeCharges{scale * qcrit, 0.0, 0.0});
    std::printf("strike at %.1fx Qcrit (%.4f fC): %s\n", scale, scale * qcrit,
                outcome.flipped ? "FLIPPED" : "recovered");
  }

  // For the CSV/ASCII view, build the cell circuit explicitly (public SPICE
  // API) so the waveform object is in our hands: compile it once, then each
  // strike is a pulse-shape rebind, a DC solve and a transient.
  spice::Circuit c;
  const auto q = c.node("q");
  const auto qb = c.node("qb");
  const auto nvdd = c.node("vdd");
  const auto bl = c.node("bl");
  const auto blb = c.node("blb");
  const auto wl = c.node("wl");
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
  c.add<spice::Capacitor>(q, spice::kGround, CellDesign{}.cnode_f);
  c.add<spice::Capacitor>(qb, spice::kGround, CellDesign{}.cnode_f);
  auto& strike = c.add<spice::PulseISource>(q, spice::kGround,
                                            spice::PulseShape{});
  const double tau_s = phys::transit_time_fs(CellDesign{}.tech, vdd) * 1e-15;

  std::vector<double> guess(c.unknown_count(), 0.0);
  guess[q] = vdd;
  guess[nvdd] = vdd;
  guess[bl] = vdd;
  guess[blb] = vdd;
  spice::TransientOptions opt;
  opt.t_end = 50e-12;
  opt.dt_max = 2e-13;

  spice::CompiledCircuit cc(c);
  spice::SolveWorkspace ws;
  spice::BatchWorkspace bw;
  for (double scale : {0.9, 1.1}) {
    strike.set_shape(spice::PulseShape::rectangular_for_charge(
        scale * qcrit * 1e-15, tau_s, 1e-12));
    cc.rebind();
    const auto x0 = spice::solve_dc(cc, ws, guess);
    const auto wave = spice::run_transient_single(cc, bw, x0, opt, {"q", "qb"});

    char path[64];
    std::snprintf(path, sizeof(path), "strike_%.0fpct.csv", 100.0 * scale);
    std::ofstream os(path);
    wave.write_csv(os);
    std::printf("\n%.0f%% of Qcrit (0..50 ps, CSV: %s)\n", 100.0 * scale, path);
    sketch(wave, 0, vdd, "Q");
    sketch(wave, 1, vdd, "QB");
  }
  return 0;
}

/// \file response_surface.cpp
/// \brief ResponseSurface build/query/codec (docs/serving.md).

#include "finser/surface/response_surface.hpp"

#include "finser/core/array_engine.hpp"
#include "finser/phys/particle.hpp"
#include "finser/util/error.hpp"

namespace finser::surface {

namespace {

constexpr std::uint32_t kCodecVersion = 1;

/// Exact-node-aware lerp: Axis::locate returns frac == 0.0 / 1.0 at grid
/// nodes (and at clamped edges), and `v0 + frac * (v1 - v0)` does not
/// reproduce v1 bit-for-bit at frac == 1.0 under IEEE-754, so nodes are
/// returned verbatim. This is what makes grid-point answers byte-identical
/// to the tabulated channel values.
double lerp_exact(double v0, double v1, double frac) {
  if (frac == 0.0) return v0;
  if (frac == 1.0) return v1;
  return v0 + frac * (v1 - v0);
}

/// Axis location generalized to degenerate (single-point) dimensions, which
/// util::Axis cannot represent: every query collapses to the lone node.
util::Axis::Location locate_or_collapse(const util::Axis& axis, double x) {
  if (axis.size() < 2) return {0, 0.0, true};
  return axis.locate(x, util::OutOfRange::kClamp);
}

}  // namespace

ResponseSurface ResponseSurface::from_sweep(std::string scenario_name,
                                            double temp_k,
                                            std::uint64_t fingerprint,
                                            const core::EnergySweepResult& sweep) {
  ResponseSurface s;
  s.scenario = std::move(scenario_name);
  s.species = std::string(phys::species_name(sweep.species));
  s.temp_k = temp_k;
  s.fingerprint = fingerprint;
  s.vdds = sweep.vdds;
  s.bins = sweep.bins;

  const std::size_t nv = s.vdds.size();
  const std::size_t nb = s.bins.size();
  FINSER_REQUIRE(sweep.per_bin.size() == nb,
                 "from_sweep: per_bin/bins size mismatch");
  FINSER_REQUIRE(sweep.fit.size() == nv, "from_sweep: fit/vdds size mismatch");

  for (const std::size_t m : {core::kModeWithPv, core::kModeNominal}) {
    s.pof_tot[m].reserve(nb * nv);
    s.pof_seu[m].reserve(nb * nv);
    s.pof_mbu[m].reserve(nb * nv);
    s.pof_tot_se[m].reserve(nb * nv);
    for (std::size_t b = 0; b < nb; ++b) {
      FINSER_REQUIRE(sweep.per_bin[b].est.size() == nv,
                     "from_sweep: per-bin estimate/vdds size mismatch");
      for (std::size_t v = 0; v < nv; ++v) {
        const core::PofEstimate& e = sweep.per_bin[b].est[v][m];
        s.pof_tot[m].push_back(e.tot);
        s.pof_seu[m].push_back(e.seu);
        s.pof_mbu[m].push_back(e.mbu);
        s.pof_tot_se[m].push_back(e.tot_se);
      }
    }
    s.fit_tot[m].reserve(nv);
    s.fit_seu[m].reserve(nv);
    s.fit_mbu[m].reserve(nv);
    for (std::size_t v = 0; v < nv; ++v) {
      const core::FitResult& f = sweep.fit[v][m];
      s.fit_tot[m].push_back(f.fit_tot);
      s.fit_seu[m].push_back(f.fit_seu);
      s.fit_mbu[m].push_back(f.fit_mbu);
    }
  }
  s.validate();
  s.rebuild_axes();
  return s;
}

void ResponseSurface::rebuild_axes() {
  vdd_axis_ = util::Axis();
  energy_axis_ = util::Axis();
  if (vdds.size() >= 2) vdd_axis_ = util::Axis(vdds, util::Scale::kLinear);
  if (bins.size() >= 2) {
    std::vector<double> reps;
    reps.reserve(bins.size());
    for (const env::EnergyBin& b : bins) reps.push_back(b.e_rep_mev);
    // Geometric bin centers interpolate naturally in log space.
    energy_axis_ = util::Axis(std::move(reps), util::Scale::kLog);
  }
}

PofSample ResponseSurface::pof(double vdd_v, double energy_mev,
                               bool with_pv) const {
  FINSER_REQUIRE(n_vdd() > 0 && n_bins() > 0, "pof query on empty surface");
  const auto m =
      with_pv ? core::kModeWithPv : core::kModeNominal;
  const util::Axis::Location lv = locate_or_collapse(vdd_axis_, vdd_v);
  const util::Axis::Location le = locate_or_collapse(energy_axis_, energy_mev);
  const std::size_t nv = n_vdd();
  const std::size_t v0 = lv.index;
  const std::size_t v1 = (nv >= 2) ? lv.index + 1 : lv.index;
  const std::size_t b0 = le.index;
  const std::size_t b1 = (n_bins() >= 2) ? le.index + 1 : le.index;

  const auto bilerp = [&](const std::array<std::vector<double>, 2>& chan) {
    const std::vector<double>& c = chan[m];
    const double lo = lerp_exact(c[b0 * nv + v0], c[b0 * nv + v1], lv.frac);
    const double hi = lerp_exact(c[b1 * nv + v0], c[b1 * nv + v1], lv.frac);
    return lerp_exact(lo, hi, le.frac);
  };
  PofSample out;
  out.tot = bilerp(pof_tot);
  out.seu = bilerp(pof_seu);
  out.mbu = bilerp(pof_mbu);
  out.tot_se = bilerp(pof_tot_se);
  return out;
}

FitSample ResponseSurface::fit(double vdd_v, bool with_pv) const {
  FINSER_REQUIRE(n_vdd() > 0, "fit query on empty surface");
  const auto m =
      with_pv ? core::kModeWithPv : core::kModeNominal;
  const util::Axis::Location lv = locate_or_collapse(vdd_axis_, vdd_v);
  const std::size_t v0 = lv.index;
  const std::size_t v1 = (n_vdd() >= 2) ? lv.index + 1 : lv.index;
  FitSample out;
  out.tot = lerp_exact(fit_tot[m][v0], fit_tot[m][v1], lv.frac);
  out.seu = lerp_exact(fit_seu[m][v0], fit_seu[m][v1], lv.frac);
  out.mbu = lerp_exact(fit_mbu[m][v0], fit_mbu[m][v1], lv.frac);
  return out;
}

bool ResponseSurface::is_grid_vdd(double vdd_v) const {
  for (double v : vdds) {
    if (v == vdd_v) return true;
  }
  return false;
}

bool ResponseSurface::is_grid_energy(double energy_mev) const {
  for (const env::EnergyBin& b : bins) {
    if (b.e_rep_mev == energy_mev) return true;
  }
  return false;
}

void ResponseSurface::validate() const {
  const std::size_t nv = vdds.size();
  const std::size_t nb = bins.size();
  FINSER_REQUIRE(nv > 0, "response surface: empty vdd axis");
  FINSER_REQUIRE(nb > 0, "response surface: empty energy axis");
  for (std::size_t i = 1; i < nv; ++i) {
    FINSER_REQUIRE(vdds[i - 1] < vdds[i],
                   "response surface: vdd axis not strictly increasing");
  }
  for (std::size_t i = 1; i < nb; ++i) {
    FINSER_REQUIRE(bins[i - 1].e_rep_mev < bins[i].e_rep_mev,
                   "response surface: energy axis not strictly increasing");
  }
  for (std::size_t m = 0; m < 2; ++m) {
    FINSER_REQUIRE(pof_tot[m].size() == nb * nv &&
                       pof_seu[m].size() == nb * nv &&
                       pof_mbu[m].size() == nb * nv &&
                       pof_tot_se[m].size() == nb * nv,
                   "response surface: POF channel size mismatch");
    FINSER_REQUIRE(fit_tot[m].size() == nv && fit_seu[m].size() == nv &&
                       fit_mbu[m].size() == nv,
                   "response surface: FIT channel size mismatch");
  }
}

std::vector<std::uint8_t> ResponseSurface::encode() const {
  validate();
  util::ByteWriter w;
  w.u32(kCodecVersion);
  w.str(scenario);
  w.str(species);
  w.f64(temp_k);
  w.u64(fingerprint);
  w.f64_vec(vdds);
  w.u64(bins.size());
  for (const env::EnergyBin& b : bins) {
    w.f64(b.e_rep_mev);
    w.f64(b.e_lo_mev);
    w.f64(b.e_hi_mev);
    w.f64(b.integral_flux_per_cm2_s);
  }
  for (std::size_t m = 0; m < 2; ++m) {
    w.f64_vec(pof_tot[m]);
    w.f64_vec(pof_seu[m]);
    w.f64_vec(pof_mbu[m]);
    w.f64_vec(pof_tot_se[m]);
  }
  for (std::size_t m = 0; m < 2; ++m) {
    w.f64_vec(fit_tot[m]);
    w.f64_vec(fit_seu[m]);
    w.f64_vec(fit_mbu[m]);
  }
  return w.take();
}

ResponseSurface ResponseSurface::decode(const std::vector<std::uint8_t>& blob) {
  util::ByteReader r(blob);
  const std::uint32_t version = r.u32();
  FINSER_REQUIRE(version == kCodecVersion,
                 "response surface: unsupported codec version");
  ResponseSurface s;
  s.scenario = r.str();
  s.species = r.str();
  s.temp_k = r.f64();
  s.fingerprint = r.u64();
  s.vdds = r.f64_vec();
  const std::uint64_t nb = r.u64();
  FINSER_REQUIRE(nb <= r.remaining() / (4 * sizeof(double)),
                 "response surface: bin count exceeds payload");
  s.bins.reserve(nb);
  for (std::uint64_t i = 0; i < nb; ++i) {
    env::EnergyBin b;
    b.e_rep_mev = r.f64();
    b.e_lo_mev = r.f64();
    b.e_hi_mev = r.f64();
    b.integral_flux_per_cm2_s = r.f64();
    s.bins.push_back(b);
  }
  for (std::size_t m = 0; m < 2; ++m) {
    s.pof_tot[m] = r.f64_vec();
    s.pof_seu[m] = r.f64_vec();
    s.pof_mbu[m] = r.f64_vec();
    s.pof_tot_se[m] = r.f64_vec();
  }
  for (std::size_t m = 0; m < 2; ++m) {
    s.fit_tot[m] = r.f64_vec();
    s.fit_seu[m] = r.f64_vec();
    s.fit_mbu[m] = r.f64_vec();
  }
  FINSER_REQUIRE(r.exhausted(), "response surface: trailing bytes");
  s.validate();
  s.rebuild_axes();
  return s;
}

}  // namespace finser::surface

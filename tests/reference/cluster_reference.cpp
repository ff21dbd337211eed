/// \file cluster_reference.cpp
/// \brief The joint N-cell tile netlist (see cluster_reference.hpp).

#include "cluster_reference.hpp"

#include <algorithm>

#include "finser/spice/dc.hpp"
#include "finser/util/error.hpp"
#include "finser/util/units.hpp"

namespace finser::sram {

using spice::kGround;
using spice::Mosfet;
using spice::PulseISource;
using spice::PulseShape;

JointClusterSimulator::JointClusterSimulator(const CellDesign& design,
                                             double vdd_v,
                                             std::size_t tile_rows,
                                             std::size_t tile_cols)
    : design_(design),
      vdd_v_(vdd_v),
      tile_rows_(tile_rows),
      tile_cols_(tile_cols) {
  FINSER_REQUIRE(vdd_v > 0.0, "JointClusterSimulator: Vdd must be positive");
  FINSER_REQUIRE(tile_rows >= 1 && tile_cols >= 1,
                 "JointClusterSimulator: tile must contain at least one cell");
  if (design_.nfet == nullptr) design_.nfet = &spice::default_nfet();
  if (design_.pfet == nullptr) design_.pfet = &spice::default_pfet();

  tau_s_ = util::fs_to_s(phys::transit_time_fs(design_.tech, vdd_v_));

  const std::size_t cells = cell_count();

  // Shared rails: one supply and one (low — retention only) wordline for the
  // whole tile, one precharged bitline pair per tile column. Both cells of a
  // column hang their pass gates off the same bl/blb nodes, as in a physical
  // column — but every one of these nodes is an ideal source.
  n_vdd_ = circuit_.node("vdd");
  n_wl_ = circuit_.node("wl");
  circuit_.add<spice::VSource>(circuit_, n_vdd_, kGround, vdd_v_);
  circuit_.add<spice::VSource>(circuit_, n_wl_, kGround, 0.0);
  n_bl_.resize(tile_cols_);
  n_blb_.resize(tile_cols_);
  for (std::size_t c = 0; c < tile_cols_; ++c) {
    n_bl_[c] = circuit_.node("bl" + std::to_string(c));
    n_blb_[c] = circuit_.node("blb" + std::to_string(c));
    circuit_.add<spice::VSource>(circuit_, n_bl_[c], kGround, vdd_v_);
    circuit_.add<spice::VSource>(circuit_, n_blb_[c], kGround, vdd_v_);
  }

  // Per-cell 6T core, every cell in the canonical Q=1/QB=0 frame.
  n_q_.resize(cells);
  n_qb_.resize(cells);
  fets_.resize(cells);
  srcs_.resize(cells);
  const PulseShape zero{};
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t col = i % tile_cols_;
    n_q_[i] = circuit_.node("q" + std::to_string(i));
    n_qb_[i] = circuit_.node("qb" + std::to_string(i));

    // Cross-coupled inverters (same construction order as StrikeSimulator).
    fets_[i][static_cast<std::size_t>(Role::kPdL)] = &circuit_.add<Mosfet>(
        n_q_[i], n_qb_[i], kGround, *design_.nfet, design_.nfin_pd);
    fets_[i][static_cast<std::size_t>(Role::kPuL)] = &circuit_.add<Mosfet>(
        n_q_[i], n_qb_[i], n_vdd_, *design_.pfet, design_.nfin_pu);
    fets_[i][static_cast<std::size_t>(Role::kPdR)] = &circuit_.add<Mosfet>(
        n_qb_[i], n_q_[i], kGround, *design_.nfet, design_.nfin_pd);
    fets_[i][static_cast<std::size_t>(Role::kPuR)] = &circuit_.add<Mosfet>(
        n_qb_[i], n_q_[i], n_vdd_, *design_.pfet, design_.nfin_pu);
    // Pass gates onto the column's shared bitlines (wordline low).
    fets_[i][static_cast<std::size_t>(Role::kPgL)] = &circuit_.add<Mosfet>(
        n_bl_[col], n_wl_, n_q_[i], *design_.nfet, design_.nfin_pg);
    fets_[i][static_cast<std::size_t>(Role::kPgR)] = &circuit_.add<Mosfet>(
        n_blb_[col], n_wl_, n_qb_[i], *design_.nfet, design_.nfin_pg);
    for (Mosfet* fet : fets_[i]) fet->set_temperature(design_.temp_k);

    // Storage-node capacitances (gate + junction, lumped).
    circuit_.add<spice::Capacitor>(n_q_[i], kGround, design_.cnode_f);
    circuit_.add<spice::Capacitor>(n_qb_[i], kGround, design_.cnode_f);

    // Strike current sources (paper Fig. 5a), per cell; shapes bound per
    // simulation, zero for unstruck cells.
    srcs_[i][0] = &circuit_.add<PulseISource>(n_q_[i], kGround, zero);
    srcs_[i][1] = &circuit_.add<PulseISource>(n_vdd_, n_qb_[i], zero);
    srcs_[i][2] = &circuit_.add<PulseISource>(n_blb_[col], n_qb_[i], zero);

    probes_.push_back("q" + std::to_string(i));
    probes_.push_back("qb" + std::to_string(i));
  }

  // Same transient window as the single-cell simulator, run to its end.
  topt_.t_end = 50e-12;
  topt_.dt_initial = 1e-15;
  topt_.dt_max = 1e-12;

  compiled_.emplace(circuit_);
}

void JointClusterSimulator::bind(const std::vector<CellStrike>& strikes,
                                 const std::vector<DeltaVt>& dvts,
                                 PulseShape::Kind kind) {
  FINSER_REQUIRE(dvts.size() == cell_count(),
                 "JointClusterSimulator: one DeltaVt per tile cell required");
  constexpr double kDelayS = 1e-12;
  const double width_s = tau_s_;
  const PulseShape zero{};
  for (std::size_t i = 0; i < cell_count(); ++i) {
    for (std::size_t r = 0; r < kRoleCount; ++r) {
      fets_[i][r]->set_delta_vt(dvts[i][r]);
    }
    for (PulseISource* src : srcs_[i]) src->set_shape(zero);
  }
  auto shape = [&](double q_fc) {
    const double q_c = util::fc_to_c(q_fc);
    return kind == PulseShape::Kind::kRectangular
               ? PulseShape::rectangular_for_charge(q_c, width_s, kDelayS)
               : PulseShape::triangular_for_charge(q_c, width_s, kDelayS);
  };
  for (const CellStrike& s : strikes) {
    FINSER_REQUIRE(s.local < cell_count(),
                   "JointClusterSimulator: strike local index out of range");
    srcs_[s.local][0]->set_shape(shape(s.charges.i1_fc));
    srcs_[s.local][1]->set_shape(shape(s.charges.i2_fc));
    srcs_[s.local][2]->set_shape(shape(s.charges.i3_fc));
  }
  compiled_->rebind();
}

std::vector<double> JointClusterSimulator::hold_guess() const {
  std::vector<double> guess(circuit_.unknown_count(), 0.0);
  for (std::size_t i = 0; i < cell_count(); ++i) {
    guess[n_q_[i]] = vdd_v_;
    guess[n_qb_[i]] = 0.0;
  }
  guess[n_vdd_] = vdd_v_;
  for (std::size_t c = 0; c < tile_cols_; ++c) {
    guess[n_bl_[c]] = vdd_v_;
    guess[n_blb_[c]] = vdd_v_;
  }
  return guess;
}

JointClusterSimulator::Outcome JointClusterSimulator::finish_wave(
    const spice::Waveform& wave) const {
  Outcome out;
  out.flipped.assign(cell_count(), 0);
  for (std::size_t i = 0; i < cell_count(); ++i) {
    const double q = wave.final_value(2 * i);
    const double qb = wave.final_value(2 * i + 1);
    // Same flip criterion as the single-cell path.
    if (q < 0.5 * vdd_v_ && qb > 0.5 * vdd_v_) {
      out.flipped[i] = 1;
      ++out.flip_count;
    }
  }
  return out;
}

JointClusterSimulator::Outcome JointClusterSimulator::simulate(
    const std::vector<CellStrike>& strikes, const std::vector<DeltaVt>& dvts,
    PulseShape::Kind kind) {
  bind(strikes, dvts, kind);
  const auto x0 = spice::solve_dc(*compiled_, ws_, hold_guess());
  return finish_wave(
      spice::run_transient_single(*compiled_, bw1_, x0, topt_, probes_));
}

void JointClusterSimulator::simulate_batch(
    const std::vector<CellStrike>& strikes,
    const std::vector<std::vector<DeltaVt>>& dvt_samples,
    PulseShape::Kind kind, std::vector<Outcome>& out) {
  const std::size_t count = dvt_samples.size();
  out.assign(count, Outcome{});

  const std::size_t width = spice::lane_width();
  if (bw_.lanes != width) compiled_->batch_configure(bw_, width);

  std::vector<std::vector<double>> x0s;
  for (std::size_t offset = 0; offset < count; offset += width) {
    const std::size_t group = std::min(width, count - offset);
    x0s.assign(group, {});
    bool any = false;
    for (std::size_t g = 0; g < group; ++g) {
      const std::size_t k = offset + g;
      bind(strikes, dvt_samples[k], kind);
      compiled_->batch_rebind_lane(bw_, g);
      try {
        x0s[g] = spice::solve_dc(*compiled_, ws_, hold_guess());
        any = true;
      } catch (const util::NumericalError& e) {
        out[k].failed = true;
        out[k].error = e.what();
      }
    }
    if (!any) continue;

    const spice::BatchTransientResult res =
        spice::run_transient_batch(*compiled_, bw_, x0s, topt_, probes_);
    for (std::size_t g = 0; g < group; ++g) {
      const std::size_t k = offset + g;
      if (x0s[g].empty()) continue;
      if (res.failed[g]) {
        out[k].failed = true;
        out[k].error = res.errors[g];
        continue;
      }
      out[k] = finish_wave(res.waves[g]);
    }
  }
}

}  // namespace finser::sram

#include "finser/logic/set_chain.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "finser/util/error.hpp"
#include "finser/util/units.hpp"

namespace finser::logic {

using spice::kGround;

SetChainSimulator::SetChainSimulator(const ChainDesign& design, double vdd_v)
    : design_(design), vdd_v_(vdd_v) {
  FINSER_REQUIRE(vdd_v > 0.0, "SetChainSimulator: Vdd must be positive");
  FINSER_REQUIRE(design_.stages >= 1, "SetChainSimulator: need >= 1 stage");
  if (design_.nfet == nullptr) design_.nfet = &spice::default_nfet();
  if (design_.pfet == nullptr) design_.pfet = &spice::default_pfet();
  tau_s_ = util::fs_to_s(phys::transit_time_fs(design_.tech, vdd_v_));

  // in -> n0 -> n1 -> ... -> n_{stages}: the strike hits n0; the output is
  // the last node. The chain input is tied low, so n0 idles high.
  const auto n_vdd = circuit_.node("vdd");
  const auto n_in = circuit_.node("in");
  circuit_.add<spice::VSource>(circuit_, n_vdd, kGround, vdd_v_);
  circuit_.add<spice::VSource>(circuit_, n_in, kGround, 0.0);

  std::size_t prev = n_in;
  for (std::size_t s = 0; s <= design_.stages; ++s) {
    // Two-step concatenation: `"n" + std::to_string(s)` trips a GCC 12
    // -Wrestrict false positive.
    std::string name = "n";
    name += std::to_string(s);
    const auto node = circuit_.node(name);
    circuit_.add<spice::Mosfet>(node, prev, kGround, *design_.nfet,
                                design_.nfin_n);
    circuit_.add<spice::Mosfet>(node, prev, n_vdd, *design_.pfet,
                                design_.nfin_p);
    circuit_.add<spice::Capacitor>(node, kGround, design_.cload_f);
    nodes_.push_back(node);
    prev = node;
  }

  // Quiescent levels: n0 is high (input low), alternating down the chain.
  victim_high_ = true;
  output_high_ = (design_.stages % 2) == 0;

  // Strike on n0: node is high, so the worst-case hit is the OFF NMOS drain
  // (current pulls the node toward ground).
  strike_ = &circuit_.add<spice::PulseISource>(nodes_.front(), kGround,
                                               spice::PulseShape{});
  output_name_ = circuit_.node_name(nodes_.back());

  // Seed Newton with the alternating logic levels: long chains from an
  // all-zero guess can wander into singular iterates.
  guess_.assign(circuit_.unknown_count(), 0.0);
  guess_[n_vdd] = vdd_v_;
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    guess_[nodes_[s]] = (s % 2 == 0) ? vdd_v_ : 0.0;
  }
  topt_.t_end = 100e-12;
  topt_.dt_initial = 1e-15;
  topt_.dt_max = 2e-13;

  // The netlist is final: lower it once. Every inject() is a rebind.
  compiled_.emplace(circuit_);
}

SetOutcome SetChainSimulator::inject(double q_fc) {
  FINSER_REQUIRE(q_fc >= 0.0, "SetChainSimulator::inject: negative charge");
  constexpr double kDelayS = 1e-12;
  strike_->set_shape(spice::PulseShape::rectangular_for_charge(
      util::fc_to_c(q_fc), tau_s_, kDelayS));

  compiled_->rebind();
  const auto x0 = spice::solve_dc(*compiled_, ws_, guess_);
  last_output_ = spice::run_transient_single(*compiled_, bw_, x0, topt_,
                                             {output_name_});
  const spice::Waveform& wave = *last_output_;

  SetOutcome out;
  const double quiescent = output_high_ ? vdd_v_ : 0.0;
  const double mid = 0.5 * vdd_v_;

  double t_first = -1.0, t_last = -1.0;
  for (std::size_t i = 0; i < wave.sample_count(); ++i) {
    const double v = wave.value(0, i);
    out.peak_excursion_v = std::max(out.peak_excursion_v, std::abs(v - quiescent));
    const bool crossed = output_high_ ? (v < mid) : (v > mid);
    if (crossed) {
      if (t_first < 0.0) t_first = wave.times()[i];
      t_last = wave.times()[i];
    }
  }
  out.propagated = t_first >= 0.0;
  out.width_out_s = out.propagated ? std::max(t_last - t_first, 0.0) : 0.0;
  return out;
}

double SetChainSimulator::critical_charge_fc(double q_max_fc, double tol_fc) {
  FINSER_REQUIRE(q_max_fc > 0.0 && tol_fc > 0.0,
                 "critical_charge_fc: bad bracket");
  if (!inject(q_max_fc).propagated) return 1e30;
  double lo = 0.0, hi = q_max_fc;
  while (hi - lo > tol_fc) {
    const double mid = 0.5 * (lo + hi);
    (inject(mid).propagated ? hi : lo) = mid;
  }
  return hi;
}

double latch_capture_probability(double pulse_width_s, double clk_period_s,
                                 double latch_window_s) {
  FINSER_REQUIRE(clk_period_s > 0.0,
                 "latch_capture_probability: period must be positive");
  FINSER_REQUIRE(pulse_width_s >= 0.0 && latch_window_s >= 0.0,
                 "latch_capture_probability: negative width");
  if (pulse_width_s == 0.0) return 0.0;
  return std::clamp((pulse_width_s + latch_window_s) / clk_period_s, 0.0, 1.0);
}

}  // namespace finser::logic

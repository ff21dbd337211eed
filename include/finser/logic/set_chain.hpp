#pragma once
/// \file set_chain.hpp
/// \brief Single-event transients (SETs) in combinational logic.
///
/// The paper's circuit-level related work ([14] characterizes SRAM cells,
/// inverters and logic chains; [15] adds electrical and latching-window
/// masking) treats the combinational counterpart of the SRAM upset: a
/// particle strike on a logic node creates a voltage glitch that must
/// (a) be large enough to be a valid logic excursion,
/// (b) survive **electrical masking** — propagation through downstream
///     gates attenuates pulses narrower than roughly twice the gate delay,
/// (c) arrive inside a flip-flop's **latching window** to be captured.
///
/// finser models (a)+(b) with its SPICE engine on an inverter chain built
/// from the same 14 nm FinFET cards as the SRAM cell, and (c) with the
/// standard window/period probability. Logic SER then composes with the
/// device-level charge spectra exactly like the SRAM flow.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "finser/phys/collection.hpp"
#include "finser/spice/batch.hpp"
#include "finser/spice/circuit.hpp"
#include "finser/spice/compiled.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/devices.hpp"
#include "finser/spice/transient.hpp"

namespace finser::logic {

/// Electrical design of the inverter chain.
struct ChainDesign {
  const spice::FinFetModel* nfet = nullptr;  ///< Default: default_nfet().
  const spice::FinFetModel* pfet = nullptr;  ///< Default: default_pfet().
  double nfin_n = 1.0;
  double nfin_p = 1.0;
  double cload_f = 0.05e-15;  ///< Per-stage node load (wire + fanout) [F].
  std::size_t stages = 8;     ///< Inverters between the struck node and the sink.
  phys::FinTechnology tech;   ///< Fin geometry (strike pulse width).
};

/// Outcome of one SET injection.
struct SetOutcome {
  bool propagated = false;    ///< Output crossed mid-rail (valid glitch).
  double width_out_s = 0.0;   ///< Output glitch width at the mid-rail crossings.
  double peak_excursion_v = 0.0;  ///< Max deviation of the output from its
                                  ///< quiescent level.
};

/// Reusable SET injection simulator on an inverter chain. The chain is
/// lowered to a spice::CompiledCircuit once, at construction; every
/// injection is a strike-shape rebind, a DC solve and a one-lane transient
/// on persistent workspaces.
class SetChainSimulator {
 public:
  SetChainSimulator(const ChainDesign& design, double vdd_v);

  SetChainSimulator(const SetChainSimulator&) = delete;
  SetChainSimulator& operator=(const SetChainSimulator&) = delete;

  /// Inject \p q_fc at the first chain node (worst case: furthest from the
  /// sink, maximum attenuation opportunity) and observe the chain output.
  SetOutcome inject(double q_fc);

  /// Smallest charge whose glitch still propagates to the output.
  double critical_charge_fc(double q_max_fc = 1.0, double tol_fc = 1e-3);

  double vdd() const { return vdd_v_; }
  const ChainDesign& design() const { return design_; }

  /// The chain netlist. Its strike source carries the pulse of the last
  /// inject(), so the tests' interpreted reference engine can replay that
  /// injection on it (DC guess: vdd at the rail, chain nodes alternating
  /// from n0 high).
  const spice::Circuit& circuit() const { return circuit_; }
  const spice::TransientOptions& transient_options() const { return topt_; }

  /// The output waveform of the last inject(): one probe, the chain output.
  const spice::Waveform& last_output() const { return *last_output_; }

 private:
  ChainDesign design_;
  double vdd_v_;
  double tau_s_;

  spice::Circuit circuit_;
  std::vector<std::size_t> nodes_;  ///< Chain nodes, [0] = struck node.
  spice::PulseISource* strike_ = nullptr;
  bool victim_high_ = true;  ///< Quiescent level of the struck node.
  bool output_high_ = true;  ///< Quiescent level of the output node.
  std::string output_name_;  ///< Name of the output node.
  std::vector<double> guess_;  ///< DC guess: the quiescent logic levels.
  spice::TransientOptions topt_;

  std::optional<spice::CompiledCircuit> compiled_;
  spice::SolveWorkspace ws_;
  spice::BatchWorkspace bw_;
  std::optional<spice::Waveform> last_output_;
};

/// Latching-window masking: the probability that a glitch of width \p
/// pulse_width_s arriving at a flip-flop with sampling window \p
/// latch_window_s and clock period \p clk_period_s is captured
/// (P = clamp((w + t_w) / T_clk, 0, 1) — the classic derating).
double latch_capture_probability(double pulse_width_s, double clk_period_s,
                                 double latch_window_s);

}  // namespace finser::logic

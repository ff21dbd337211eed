#pragma once
/// \file transient.hpp
/// \brief Transient analysis: options, the latch stop and recorded
/// waveforms.
///
/// Strike simulations resolve a ~10 fs current pulse inside a ~100 ps
/// settling window — four orders of magnitude of time scale. The solver
/// handles this with hard breakpoints at source edges (steps land exactly
/// on them and the step size is reset after each), geometric step growth
/// while Newton converges easily, and step rejection/shrinking on
/// convergence failure. Integrators: backward Euler (robust default) and
/// trapezoidal (2nd order, used by accuracy cross-checks).
///
/// A run normally integrates to t_end. A bistable circuit whose caller only
/// needs the final state can opt into a latch stop (TransientOptions::latch)
/// that ends the run once the outcome can no longer change.
///
/// The engine is the lane-batched compiled loop (run_transient_batch() and
/// run_transient_single() in batch.hpp). The tests keep an interpreted
/// reference loop over the polymorphic devices with the same step control;
/// the compiled loop is pinned byte-identical to it at every lane width,
/// latch stops included.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "finser/spice/circuit.hpp"

namespace finser::spice {

/// Recorded node waveforms of one transient run.
class Waveform {
 public:
  Waveform(std::vector<std::string> names, std::vector<std::size_t> nodes);

  void append(double t, const std::vector<double>& x);

  /// Drop every sample but keep the probes and the buffers' capacity, so a
  /// reused waveform records its next run without reallocating.
  void clear();

  std::size_t probe_count() const { return nodes_.size(); }
  std::size_t sample_count() const { return times_.size(); }
  const std::vector<double>& times() const { return times_; }
  const std::string& probe_name(std::size_t p) const { return names_[p]; }

  /// Probe index by name (throws if absent).
  std::size_t probe(const std::string& name) const;

  /// Sampled value of probe \p p at step \p i.
  double value(std::size_t p, std::size_t i) const { return data_[p][i]; }

  /// Linear interpolation of probe \p p at time \p t (clamped to the range).
  double at(std::size_t p, double t) const;

  /// Final sampled value of probe \p p.
  double final_value(std::size_t p) const;

  double min_value(std::size_t p) const;
  double max_value(std::size_t p) const;

  /// Write the waveforms as CSV (`time_s,<probe>,<probe>,...`) for external
  /// plotting.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::size_t> nodes_;
  std::vector<double> times_;
  std::vector<std::vector<double>> data_;  ///< [probe][sample].
};

/// Half-width of the latch band as a fraction of the rail (see LatchStop).
inline constexpr double kLatchMargin = 0.02;

/// Early-stop rule for a bistable pair of nodes (an SRAM cell's storage
/// nodes). A run stops at the first accepted step that is past the last
/// edge of every source — computed once per run from the unclipped edges,
/// so a source still on, even one ending past t_end, never arms the rule —
/// and finds the two nodes within kLatchMargin · rail of opposite rails.
/// The band is two-sided: a node overshooting past a rail is not latched.
struct LatchStop {
  std::size_t node_a = kGround;  ///< Probe node (not ground).
  std::size_t node_b = kGround;  ///< Probe node (not ground).
  double rail = 0.0;             ///< High rail [V]; the low rail is 0 V.

  /// True when {va, vb} sit within the band of {rail, 0} or of {0, rail}.
  bool holds(double va, double vb) const;
};

/// Transient analysis options.
struct TransientOptions {
  double t_end = 0.0;           ///< Simulation end time [s] (required, > 0).
  double dt_initial = 1e-15;    ///< First step [s].
  double dt_min = 1e-20;        ///< Below this a non-converging run aborts.
  double dt_max = 1e-12;        ///< Step-size ceiling [s].
  double grow_factor = 1.4;     ///< Step growth after an easy accept.
  double shrink_factor = 0.25;  ///< Step shrink on Newton failure.
  int max_newton = 60;          ///< Newton iterations per step.
  double v_tol = 1e-7;          ///< Newton convergence threshold [V].
  double damping_vmax = 0.4;    ///< Newton damping clamp [V].
  Integrator method = Integrator::kBackwardEuler;
  /// Retry ladder: when the step size underflows dt_min, the run restarts
  /// the failing step this many times with progressively more conservative
  /// Newton settings (double max_newton, halve damping_vmax, re-enter with
  /// a smaller fresh dt) before throwing NumericalError. The escalation is
  /// deterministic — no randomness, no wall-clock — so retried runs stay
  /// reproducible. 0 disables the ladder.
  int max_restarts = 2;
  /// Opt-in latch stop (see LatchStop). Unset, every run ends at t_end;
  /// set, a run may end earlier, so its waveform length and final values
  /// are those of the stop step.
  std::optional<LatchStop> latch;
};

}  // namespace finser::spice

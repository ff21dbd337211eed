#pragma once
/// \file dc.hpp
/// \brief Nonlinear DC operating-point solver.
///
/// Damped Newton–Raphson over the MNA companion linearization, globalized by
/// gmin stepping (a conductance from every node to ground, stepped down to
/// zero). SRAM cells are bistable: the solver converges to the stable state
/// in whose basin the initial guess lies, which is exactly how the cell's
/// logical state is selected before a strike simulation.
///
/// The solve runs lane-batched on a compiled circuit: W parameter bindings
/// advance through one vectorized Newton tick at a time (the fused DC stamp
/// of every lane, then the engine's LU, batch.hpp), while each lane keeps
/// its own damping, convergence test, gmin schedule and retry ladder.
/// solve_dc() is the one-lane case of that loop and solve_dc_batch() the
/// W-lane one; a lane's solution, failure text and counters are those of
/// solve_dc() on its binding, at every width. The tests keep an interpreted
/// oracle over the polymorphic devices that runs the same Newton and
/// continuation code and is pinned byte-identical to this one.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "finser/spice/batch.hpp"
#include "finser/spice/compiled.hpp"

namespace finser::spice {

/// Options for the operating-point solve.
struct DcOptions {
  int max_iterations = 200;       ///< Newton iterations per gmin stage.
  double v_tol = 1e-9;            ///< Convergence: max |Δx| below this [V/A].
  double damping_vmax = 0.3;      ///< Max per-iteration voltage move [V].
  /// gmin continuation schedule. The final stage keeps a residual 1e-12 S
  /// shunt (standard SPICE practice) so floating nodes — e.g. a capacitor
  /// with no DC path — stay solvable; it is ~6 orders below any device
  /// conductance that matters here.
  std::vector<double> gmin_steps = {1e-3, 1e-5, 1e-7, 1e-9, 1e-12};
  /// Retry ladder: when a gmin stage fails, the solver restores the last
  /// converged iterate and inserts an intermediate stage (the geometric
  /// midpoint of the failed step), up to this many times across the whole
  /// continuation, before giving up with NumericalError. 0 disables the
  /// ladder (strict single-pass schedule). Each lane of a batched solve
  /// runs its own ladder.
  int max_gmin_extensions = 8;
};

/// Preallocated scratch of the DC solve: the lanes' systems (parameters,
/// dense blocks, iterates, solutions and pivot-order caches) and the
/// Newton/continuation work vectors. One workspace per (thread, compiled
/// circuit); reusing it across solves is what removes per-sample
/// allocations. Every solve starts each lane with an empty pivot cache, so
/// its counters do not depend on the solves that ran on the workspace
/// before it.
struct SolveWorkspace {
  /// The lanes' systems (batch.hpp): solve_dc() sizes it to one lane,
  /// solve_dc_batch() expects it configured and its lanes loaded.
  BatchWorkspace lu;
  std::vector<double> x_good;  ///< n × W: last converged iterate per lane.
  std::vector<double> anchor;  ///< gmin anchor (the initial guess).
  /// Per-lane extensible continuation schedule.
  std::array<std::vector<double>, kMaxLaneWidth> gmin_schedule;
};

/// Solve the DC operating point of \p circuit's current binding, as a
/// one-lane solve: \p ws is sized to one lane of \p circuit on first use
/// (a workspace of another width or circuit is reconfigured) and lane 0 is
/// rebound first.
/// \param initial_guess optional starting vector (unknown_count() wide);
///        pass the intended SRAM state to select the bistable branch.
/// \returns the solution vector (node voltages then branch currents).
/// \throws util::NumericalError if any gmin stage fails to converge.
std::vector<double> solve_dc(CompiledCircuit& circuit, SolveWorkspace& ws,
                             const std::vector<double>& initial_guess = {},
                             const DcOptions& options = {});

/// Per-lane results of solve_dc_batch(), indexed by lane. The vectors keep
/// their capacity across calls, so a reused result allocates nothing.
struct DcBatchResult {
  std::vector<std::vector<double>> x;  ///< Solution; empty where failed.
  std::vector<std::uint8_t> failed;    ///< 1 where the lane's solve failed.
  /// The failure text per failed lane: what solve_dc() throws as
  /// util::NumericalError for the lane's binding.
  std::vector<std::string> errors;
};

/// solve_dc() of lanes [0, \p count) of ws.lu at once. ws.lu must be
/// configured to one of kLaneWidths lanes of \p circuit
/// (CompiledCircuit::batch_configure) with each solved lane's binding loaded
/// (device setters → rebind() → batch_rebind_lane(ws.lu, w)); lanes past
/// \p count ride masked. Every lane starts from \p initial_guess. Per lane,
/// the solution or the failure text is byte-identical to solve_dc() of the
/// lane's binding, and so are the `spice.dc.*` and `spice.mna.*` counts;
/// a failed lane is reported in \p out instead of thrown and never perturbs
/// its neighbours. \p out is sized to \p count.
void solve_dc_batch(CompiledCircuit& circuit, SolveWorkspace& ws,
                    std::size_t count, const std::vector<double>& initial_guess,
                    DcBatchResult& out, const DcOptions& options = {});

}  // namespace finser::spice

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
/// The solve runs on a compiled circuit: its fused stamp plan assembles each
/// Newton iterate's linearization, and the compiled LU kernel of the
/// transient engine (batch.hpp) factors it as a one-lane system. The tests
/// keep an interpreted oracle over the polymorphic devices that runs the same
/// Newton and continuation code and is pinned byte-identical to this one.

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
  /// ladder (strict single-pass schedule).
  int max_gmin_extensions = 8;
};

/// Preallocated scratch of the DC solve: the Newton/continuation work
/// vectors and the one-lane system the LU kernel factors (its dense blocks,
/// solution and pivot-order cache). One workspace per (thread, compiled
/// circuit); reusing it across solves is what removes per-sample
/// allocations. Handed a circuit of another size, the solve resizes it.
/// Every solve starts with an empty pivot cache, so its counters do not
/// depend on the solves that ran on the workspace before it.
struct SolveWorkspace {
  BatchWorkspace lu;                  ///< One-lane system (batch.hpp).
  std::vector<double> x_good;         ///< Last converged iterate.
  std::vector<double> anchor;         ///< gmin anchor (initial guess copy).
  std::vector<double> gmin_schedule;  ///< Extensible continuation schedule.
};

/// Solve the DC operating point of \p circuit's current binding.
/// \param initial_guess optional starting vector (unknown_count() wide);
///        pass the intended SRAM state to select the bistable branch.
/// \returns the solution vector (node voltages then branch currents).
/// \throws util::NumericalError if any gmin stage fails to converge.
std::vector<double> solve_dc(CompiledCircuit& circuit, SolveWorkspace& ws,
                             const std::vector<double>& initial_guess = {},
                             const DcOptions& options = {});

}  // namespace finser::spice

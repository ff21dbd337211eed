#include "finser/spice/dc.hpp"

#include "engine_detail.hpp"

namespace finser::spice {

std::vector<double> solve_dc(CompiledCircuit& circuit, SolveWorkspace& ws,
                             const std::vector<double>& initial_guess,
                             const DcOptions& options) {
  if (ws.lu.lanes != 1 || ws.lu.unknowns != circuit.unknown_count()) {
    circuit.batch_configure(ws.lu, 1);
  }
  // Each solve starts without a pivot order: the cache is bookkeeping only
  // (pivots are always re-scanned), and a fresh one keeps a solve's
  // spice.mna.pivot_* counts independent of the solves before it.
  ws.lu.pivot_valid[0] = 0;
  detail::CompiledDcSystem system{circuit, ws.lu};
  return detail::solve_dc_impl(system, ws, initial_guess, options);
}

}  // namespace finser::spice

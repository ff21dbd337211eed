#pragma once
/// \file spice_reference.hpp
/// \brief The interpreted SPICE engine: the tests' reference oracle.
///
/// solve_dc() and run_transient() below walk the polymorphic Device list of a
/// Circuit (virtual Device::stamp()) and factor every Newton iterate with
/// Mna::factor_and_solve. They are the oracle the compiled engine — the only
/// engine the library runs (dc.hpp, batch.hpp) — is pinned byte-identical
/// to: the DC oracle runs the compiled DC's Newton and continuation code on
/// a policy over Mna, and the transient oracle is a scalar loop with the
/// same step control as the lane-batched one. Only test executables link
/// this library (finser_spice_reference).
///
/// Unlike the compiled engine, these entry points allocate their scratch per
/// call and mutate the devices: run_transient() initializes every device's
/// reactive state from \p x0, advances it, and leaves it at the final time.

#include <string>
#include <vector>

#include "finser/spice/circuit.hpp"
#include "finser/spice/dc.hpp"
#include "finser/spice/transient.hpp"

namespace finser::spice {

/// Solve the DC operating point of \p circuit (see dc.hpp for the
/// algorithm and options).
std::vector<double> solve_dc(const Circuit& circuit,
                             const std::vector<double>& initial_guess = {},
                             const DcOptions& options = {});

/// Run a transient from the operating point \p x0 (from solve_dc).
/// \param probe_nodes node names to record; empty records every node.
Waveform run_transient(const Circuit& circuit, const std::vector<double>& x0,
                       const TransientOptions& options,
                       const std::vector<std::string>& probe_nodes = {});

}  // namespace finser::spice

#pragma once
/// \file cluster_reference.hpp
/// \brief The joint N-cell tile netlist: the tests' cluster-mode oracle.
///
/// JointClusterSimulator builds all tile_rows × tile_cols 6T cells of a
/// tile into one netlist at a fixed supply voltage (retention): shared
/// supply and (low) wordline rails, one precharged bitline pair per tile
/// column, per-cell storage nodes, threshold-shift slots and strike-current
/// sources. Every shared node is an ideal voltage source, so the netlist is
/// N independent cells; sram::ClusterSimulator simulates each struck cell
/// on its own sram::StrikeSimulator instead, and the equivalence tests pin
/// its per-cell verdicts to this joint circuit's. Only finser_mbu_tests
/// links this library (finser_cluster_reference).
///
/// The netlist is lowered once into a spice::CompiledCircuit; each
/// evaluation is a parameter rebind and a full 50 ps transient (no latch
/// stop), with the flip of each cell read at the end of the window.

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "finser/sram/cell.hpp"
#include "finser/sram/cluster.hpp"

namespace finser::sram {

class JointClusterSimulator {
 public:
  using CellStrike = ClusterSimulator::CellStrike;
  using Outcome = ClusterSimulator::Outcome;

  JointClusterSimulator(const CellDesign& design, double vdd_v,
                        std::size_t tile_rows, std::size_t tile_cols);

  JointClusterSimulator(const JointClusterSimulator&) = delete;
  JointClusterSimulator& operator=(const JointClusterSimulator&) = delete;

  /// One joint transient with every tile cell in the netlist. \p dvts
  /// carries one DeltaVt per tile cell (flat local order); throws
  /// util::NumericalError if the solve fails.
  Outcome simulate(const std::vector<CellStrike>& strikes,
                   const std::vector<DeltaVt>& dvts,
                   spice::PulseShape::Kind kind);

  /// Lane-batched simulate() over process-variation samples: sample s runs
  /// with \p dvt_samples[s], all sharing \p strikes.
  void simulate_batch(const std::vector<CellStrike>& strikes,
                      const std::vector<std::vector<DeltaVt>>& dvt_samples,
                      spice::PulseShape::Kind kind, std::vector<Outcome>& out);

  std::size_t cell_count() const { return tile_rows_ * tile_cols_; }

 private:
  void bind(const std::vector<CellStrike>& strikes,
            const std::vector<DeltaVt>& dvts, spice::PulseShape::Kind kind);
  std::vector<double> hold_guess() const;
  Outcome finish_wave(const spice::Waveform& wave) const;

  CellDesign design_;
  double vdd_v_;
  std::size_t tile_rows_;
  std::size_t tile_cols_;
  double tau_s_;

  spice::Circuit circuit_;
  std::vector<std::size_t> n_q_, n_qb_;    ///< Per cell.
  std::vector<std::size_t> n_bl_, n_blb_;  ///< Per tile column.
  std::size_t n_vdd_ = 0, n_wl_ = 0;
  std::vector<std::array<spice::Mosfet*, kRoleCount>> fets_;  ///< Per cell.
  std::vector<std::array<spice::PulseISource*, 3>> srcs_;     ///< Per cell.
  std::vector<std::string> probes_;  ///< q0, qb0, q1, qb1, ...
  spice::TransientOptions topt_;

  std::optional<spice::CompiledCircuit> compiled_;
  spice::SolveWorkspace ws_;   ///< DC hold solves.
  spice::BatchWorkspace bw1_;  ///< simulate()'s one-lane transients.
  spice::BatchWorkspace bw_;   ///< simulate_batch()'s lane groups.
};

}  // namespace finser::sram
